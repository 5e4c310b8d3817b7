package exp

import (
	"fmt"
	"io"

	"crowdpricing/internal/market"
)

// Render runs the experiments named by ids and prints each under a
// "==== id ====" header, in order. No ids means every table and figure:
// table1, table2, fig1, fig5, fig6, fig7a, fig7b, fig8, fig8d, fig9, fig10,
// fig10adaptive, fig11, fig12, fig1314, fig15 and quality. seed is the base
// random seed and trials the Monte Carlo trial count of the sensitivity
// studies. The workload and the Section 5.4 live study are each built at
// most once per call, when an id first needs them; fig12, fig1314 and fig15
// project the one study. Render stops at the first unknown id or failed
// experiment, after printing its header, and returns the error.
func Render(out io.Writer, ids []string, seed int64, trials int) error {
	if len(ids) == 0 {
		ids = []string{"table1", "table2", "fig1", "fig5", "fig6", "fig7a", "fig7b",
			"fig8", "fig8d", "fig9", "fig10", "fig10adaptive", "fig11", "fig12",
			"fig1314", "fig15", "quality"}
	}
	var w *Workload
	workload := func() *Workload {
		if w == nil {
			w = DefaultWorkload()
		}
		return w
	}
	var live *market.Study
	study := func() (*market.Study, error) {
		var err error
		if live == nil {
			live, err = market.RunStudy(market.PaperLiveConfig(market.PaperArrival()), seed)
		}
		return live, err
	}
	for _, id := range ids {
		fmt.Fprintf(out, "\n==== %s ====\n", id)
		switch id {
		case "table1":
			PrintTable1(out, Table1())
		case "table2":
			PrintTable2(out, Table2(seed))
		case "fig1":
			PrintFigure1(out, Figure1())
		case "fig5":
			PrintFigure5(out, Figure5(seed))
		case "fig6":
			PrintFigure6(out, Figure6(seed))
		case "fig7a":
			res, err := Figure7a(workload())
			if err != nil {
				return err
			}
			PrintFigure7a(out, res)
		case "fig7b":
			cells, err := Figure7b(workload())
			if err != nil {
				return err
			}
			PrintReductionCells(out, "Figure 7(b): cost reduction across N and T", cells)
		case "fig8":
			s, b, m, err := Figure8abc(workload())
			if err != nil {
				return err
			}
			PrintReductionCells(out, "Figure 8(a): cost reduction vs s", s)
			PrintReductionCells(out, "Figure 8(b): cost reduction vs b", b)
			PrintReductionCells(out, "Figure 8(c): cost reduction vs M", m)
		case "fig8d":
			rows, err := Figure8d(workload())
			if err != nil {
				return err
			}
			PrintFigure8d(out, rows)
		case "fig9":
			rows, err := Figure9(workload(), trials, seed)
			if err != nil {
				return err
			}
			PrintFigure9(out, rows)
		case "fig10":
			rows, err := Figure10(workload(), trials, seed)
			if err != nil {
				return err
			}
			PrintFigure10(out, rows)
		case "fig10adaptive":
			rows, err := Figure10Adaptive(workload(), trials, seed)
			if err != nil {
				return err
			}
			PrintFigure10Adaptive(out, rows)
		case "fig11":
			res, err := Figure11(workload(), trials, seed)
			if err != nil {
				return err
			}
			PrintFigure11(out, res)
		case "fig12":
			s, err := study()
			if err != nil {
				return err
			}
			PrintFigure12(out, Figure12(s))
		case "fig1314":
			s, err := study()
			if err != nil {
				return err
			}
			PrintFigure1314(out, Figure1314(s))
		case "fig15":
			s, err := study()
			if err != nil {
				return err
			}
			PrintFigure15(out, Figure15(s))
		case "quality":
			rows, err := QualityExtension(workload())
			if err != nil {
				return err
			}
			PrintQualityExtension(out, rows)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	return nil
}
