package market

// Study is one run of the Section 5.4 live protocol: the fixed trials, the
// hourly bundle schedule planned from them, and the dynamic trial it drove.
// Figures 12-15 and Tables 3-4 are projections of one Study.
type Study struct {
	Config Config
	// Fixed holds the fixed trials in PaperGroupSizes order.
	Fixed []*Result
	// Choices[h] is the bundle size the dynamic trial offered in hour h
	// (0 for the hours after the batch finished).
	Choices []int
	Dynamic *Result
}

// RunStudy runs the Section 5.4 protocol on cfg: fixed trial i with bundle
// size PaperGroupSizes[i] at seed+i, per-bundle rates estimated from those
// trials, a schedule planned by PlanGroupSizes over 10-task units with a
// 500¢ penalty per unit left at the deadline, and the dynamic trial that
// follows it at seed+100.
func RunStudy(cfg Config, seed int64) (*Study, error) {
	s := &Study{Config: cfg, Choices: make([]int, int(cfg.Horizon))}
	byGroup := map[int]*Result{}
	for i, g := range PaperGroupSizes {
		res, err := RunFixed(cfg, g, seed+int64(i))
		if err != nil {
			return nil, err
		}
		s.Fixed = append(s.Fixed, res)
		byGroup[g] = res
	}
	rates, err := EstimateGroupRates(cfg, byGroup)
	if err != nil {
		return nil, err
	}
	choose, err := PlanGroupSizes(cfg, rates, 10, 500)
	if err != nil {
		return nil, err
	}
	logged := func(remaining, hour int) int {
		g := choose(remaining, hour)
		if hour >= 0 && hour < len(s.Choices) {
			s.Choices[hour] = g
		}
		return g
	}
	if s.Dynamic, err = RunDynamic(cfg, logged, seed+100); err != nil {
		return nil, err
	}
	return s, nil
}
