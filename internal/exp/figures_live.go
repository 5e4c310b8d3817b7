package exp

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"crowdpricing/internal/market"
	"crowdpricing/internal/stats"
)

// LiveCurves holds the hourly completion curves of one trial.
type LiveCurves struct {
	Group int
	// HITsByHour[h] is the cumulative number of HITs finished by hour h+1.
	HITsByHour []int
	// WorkByHour[h] is the cumulative fraction of total work finished.
	WorkByHour []float64
	CostCents  int
	// CompletionHours is the batch finish time, +Inf if unfinished.
	CompletionHours float64
}

// Figure12Result is the live-experiment reproduction: the five fixed trials
// and the dynamic trial.
type Figure12Result struct {
	Fixed   []LiveCurves
	Dynamic LiveCurves
	// DynamicChoices records the bundle size chosen at each hour.
	DynamicChoices []int
}

// Figure12 projects the live study onto Figure 12: the hourly curves of
// the five fixed trials and of the dynamic trial, with the bundle size the
// planned schedule chose each hour.
func Figure12(s *market.Study) Figure12Result {
	res := Figure12Result{Dynamic: curvesFrom(s.Config, s.Dynamic, 0), DynamicChoices: s.Choices}
	for i, r := range s.Fixed {
		res.Fixed = append(res.Fixed, curvesFrom(s.Config, r, market.PaperGroupSizes[i]))
	}
	return res
}

func curvesFrom(cfg market.Config, r *market.Result, g int) LiveCurves {
	hours := int(cfg.Horizon)
	lc := LiveCurves{Group: g, CostCents: r.CostCents, CompletionHours: r.CompletionTime}
	for h := 1; h <= hours; h++ {
		lc.HITsByHour = append(lc.HITsByHour, r.CompletedHITsBy(float64(h)))
		lc.WorkByHour = append(lc.WorkByHour, float64(r.CompletedTasksBy(float64(h)))/float64(cfg.TotalTasks))
	}
	return lc
}

// PrintFigure12 writes the three panels of Figure 12.
func PrintFigure12(w io.Writer, res Figure12Result) {
	fmt.Fprintln(w, "Figure 12(a): HITs completed by hour (fixed bundle sizes)")
	fmt.Fprint(w, "hour ")
	for _, f := range res.Fixed {
		fmt.Fprintf(w, " g=%-5d", f.Group)
	}
	fmt.Fprintln(w)
	for h := 0; h < len(res.Fixed[0].HITsByHour); h++ {
		fmt.Fprintf(w, "%4d ", h+1)
		for _, f := range res.Fixed {
			fmt.Fprintf(w, " %-7d", f.HITsByHour[h])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Figure 12(b): % work completed by hour (fixed bundle sizes)")
	for h := 0; h < len(res.Fixed[0].WorkByHour); h++ {
		fmt.Fprintf(w, "%4d ", h+1)
		for _, f := range res.Fixed {
			fmt.Fprintf(w, " %-7.3f", f.WorkByHour[h])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Figure 12(c): % work completed by hour (dynamic)")
	for h, v := range res.Dynamic.WorkByHour {
		fmt.Fprintf(w, "%4d  %-7.3f (g=%d)\n", h+1, v, res.DynamicChoices[min(h, len(res.DynamicChoices)-1)])
	}
	fmt.Fprintf(w, "dynamic cost: %d cents; fixed costs:", res.Dynamic.CostCents)
	for _, f := range res.Fixed {
		fmt.Fprintf(w, " g%d=%dc", f.Group, f.CostCents)
	}
	fmt.Fprintln(w)
}

// AccuracyResult is the Figures 13/14 + Tables 3/4 data: per-HIT accuracy
// distributions and their means per bundle size (fixed) and for the dynamic
// trial's dominant sizes.
type AccuracyResult struct {
	// FixedECDF maps bundle size to the sorted per-HIT accuracy sample.
	FixedECDF map[int][]float64
	// FixedMean maps bundle size to the average accuracy (Table 3).
	FixedMean map[int]float64
	// DynamicECDF maps bundle size (of HITs inside the dynamic trial) to
	// accuracy samples; only sizes with enough HITs are included.
	DynamicECDF map[int][]float64
	// DynamicMean maps those sizes to average accuracy (Table 4).
	DynamicMean map[int]float64
}

// Figure1314 projects the live study onto the accuracy analysis of
// Section 5.4.3.
func Figure1314(s *market.Study) AccuracyResult {
	res := AccuracyResult{
		FixedECDF: map[int][]float64{}, FixedMean: map[int]float64{},
		DynamicECDF: map[int][]float64{}, DynamicMean: map[int]float64{},
	}
	for i, r := range s.Fixed {
		g := market.PaperGroupSizes[i]
		acc := r.Accuracies()
		slices.Sort(acc)
		res.FixedECDF[g] = acc
		res.FixedMean[g] = stats.Mean(acc)
	}
	byGroup := map[int][]float64{}
	for _, h := range s.Dynamic.HITs {
		byGroup[h.Group] = append(byGroup[h.Group], h.Accuracy())
	}
	for _, g := range slices.Sorted(maps.Keys(byGroup)) {
		acc := byGroup[g]
		if len(acc) < 10 {
			continue // the paper plots only the sizes the policy actually used
		}
		slices.Sort(acc)
		res.DynamicECDF[g] = acc
		res.DynamicMean[g] = stats.Mean(acc)
	}
	return res
}

// PrintFigure1314 writes the accuracy tables and decile CDFs.
func PrintFigure1314(w io.Writer, res AccuracyResult) {
	fmt.Fprintln(w, "Table 3: average accuracy per bundle size (fixed trials)")
	for _, g := range market.PaperGroupSizes {
		fmt.Fprintf(w, "g=%d: %.1f%%\n", g, res.FixedMean[g]*100)
	}
	fmt.Fprintln(w, "Table 4: average accuracy in the dynamic trial")
	gs := slices.Sorted(maps.Keys(res.DynamicMean))
	for _, g := range gs {
		fmt.Fprintf(w, "g=%d: %.1f%% (%d HITs)\n", g, res.DynamicMean[g]*100, len(res.DynamicECDF[g]))
	}
	fmt.Fprintln(w, "Figure 13: accuracy CDF deciles per bundle size (fixed)")
	for _, g := range market.PaperGroupSizes {
		fmt.Fprintf(w, "g=%d:", g)
		printDeciles(w, res.FixedECDF[g])
	}
	fmt.Fprintln(w, "Figure 14: accuracy CDF deciles (dynamic)")
	for _, g := range gs {
		fmt.Fprintf(w, "g=%d:", g)
		printDeciles(w, res.DynamicECDF[g])
	}
}

func printDeciles(w io.Writer, sorted []float64) {
	if len(sorted) == 0 {
		fmt.Fprintln(w, " (no data)")
		return
	}
	for q := 1; q <= 9; q++ {
		idx := q * (len(sorted) - 1) / 10
		fmt.Fprintf(w, " %.2f", sorted[idx])
	}
	fmt.Fprintln(w)
}

// Figure15Row pairs a bundle size with the average HITs per worker.
type Figure15Row struct {
	Group         int
	HITsPerWorker float64
}

// Figure15 projects the live study's fixed trials onto the
// worker-retention analysis.
func Figure15(s *market.Study) []Figure15Row {
	var rows []Figure15Row
	for i, r := range s.Fixed {
		rows = append(rows, Figure15Row{Group: market.PaperGroupSizes[i], HITsPerWorker: r.HITsPerWorker()})
	}
	return rows
}

// PrintFigure15 writes the retention rows.
func PrintFigure15(w io.Writer, rows []Figure15Row) {
	fmt.Fprintln(w, "Figure 15: average HITs completed per worker")
	fmt.Fprintln(w, "bundle  unit-price($)  HITs/worker")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7d %-14.5f %-11.2f\n", r.Group, 0.02/float64(r.Group), r.HITsPerWorker)
	}
}
