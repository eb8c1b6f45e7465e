package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// The makeup of the paper's evaluation artifacts is written once, here: the
// table1..table7, fig1, fig2 and shapecheck commands and report all build
// through the functions below.

// paperPlatforms are the platforms of Tables 2-6.
var paperPlatforms = []string{repro.Intel9700KF, repro.AMD9950X3D}

// paperWorkloads are the workloads of Tables 1-6, in table order: Tables 3,
// 4 and 5 are their injection studies.
var paperWorkloads = []string{"nbody", "babelstream", "minife"}

// table1 measures Table 1: tracing overhead on the Intel platform at the
// baseline rep count.
func table1(reps repro.RepCounts, seed uint64) (*repro.RenderTable, error) {
	p, err := repro.NewPlatform(repro.Intel9700KF)
	if err != nil {
		return nil, err
	}
	rows, err := repro.TracingOverheadExec(context.Background(), newExec(), p,
		paperWorkloads, reps.Baseline, seed)
	if err != nil {
		return nil, err
	}
	return repro.RenderTable1(rows), nil
}

// table2 measures Table 2: the baseline study of every paper workload on
// each platform, at the baseline rep count.
func table2(platforms []string, reps repro.RepCounts, seed uint64) (*repro.RenderTable, error) {
	var results []*repro.BaselineResult
	for _, pname := range platforms {
		p, err := repro.NewPlatform(pname)
		if err != nil {
			return nil, err
		}
		for _, w := range paperWorkloads {
			res, err := (repro.BaselineStudy{
				Platform: p, Workload: w, Reps: reps.Baseline, Seed: seed,
				Exec: newExec(),
			}).RunContext(context.Background())
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	return repro.RenderTable2(results), nil
}

// injectionStudy runs the injection study behind Table 3, 4 or 5 for one
// workload: improved-merge configs on the paper platforms, two per platform
// except one on AMD outside minife.
func injectionStudy(workload string, reps repro.RepCounts, seed uint64) (*repro.InjectionResult, error) {
	var plats []*repro.Platform
	for _, name := range paperPlatforms {
		p, err := repro.NewPlatform(name)
		if err != nil {
			return nil, err
		}
		plats = append(plats, p)
	}
	cfgPer := map[string]int{repro.Intel9700KF: 2, repro.AMD9950X3D: 1}
	if workload == "minife" {
		cfgPer[repro.AMD9950X3D] = 2
	}
	return (repro.InjectionStudy{
		Platforms:          plats,
		Workload:           workload,
		Reps:               reps,
		Seed:               seed,
		Improved:           true,
		ConfigsPerPlatform: cfgPer,
		Exec:               newExec(),
	}).RunContext(context.Background())
}

// injectionStudies runs Tables 3-5's studies in table order: the inputs of
// Table 6 and the shape checks.
func injectionStudies(reps repro.RepCounts, seed uint64) ([]*repro.InjectionResult, error) {
	var all []*repro.InjectionResult
	for _, w := range paperWorkloads {
		res, err := injectionStudy(w, reps, seed)
		if err != nil {
			return nil, err
		}
		all = append(all, res)
	}
	return all, nil
}

// table7 measures Table 7: replay accuracy of the paper's ten cases.
func table7(reps repro.RepCounts, seed uint64, improved bool) (*repro.RenderTable, error) {
	entries, err := (repro.AccuracyStudy{
		Cases:    repro.PaperAccuracyCases(),
		Reps:     reps,
		Seed:     seed,
		Improved: improved,
		Exec:     newExec(),
	}).RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	return repro.RenderTable7(entries), nil
}

// paperFigure is one motivation figure: the series behind it, and its title
// in its own command and in report.
type paperFigure struct {
	series             func(context.Context, repro.Executor, int, uint64) ([]repro.FigureSeries, error)
	title, reportTitle string
}

// paperFigures holds Figures 1 and 2, in order.
var paperFigures = []paperFigure{
	{repro.Figure1Exec, "schedbench exec time (ms), A64FX reserved vs w/o",
		"schedbench exec time (ms), reserved vs w/o"},
	{repro.Figure2Exec, "Babelstream dot exec time (ms) vs threads",
		"Babelstream dot exec time (ms) vs threads"},
}

func scaleFlags(name string) (*flag.FlagSet, *float64, *uint64) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "multiply repetition counts (1.0 = CLI depth, DefaultReps 150/25/25; paper scale needs ~8-40x)")
	seed := fs.Uint64("seed", 20250706, "base seed")
	return fs, scale, seed
}

// emitTable prints the table and optionally writes it as CSV.
func emitTable(t *repro.RenderTable, csvPath string) error {
	fmt.Print(t.Text())
	if csvPath == "" {
		return nil
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("csv -> %s\n", csvPath)
	return nil
}

// tableCmd runs a table command: it parses -scale, -seed, -csv and the
// flags that flags registers (when non-nil), builds the table at the scaled
// rep counts and prints it.
func tableCmd(name string, args []string, flags func(*flag.FlagSet),
	build func(repro.RepCounts, uint64) (*repro.RenderTable, error)) error {
	fs, scale, seed := scaleFlags(name)
	csvPath := fs.String("csv", "", "also write the table as CSV to this file")
	if flags != nil {
		flags(fs)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := build(repro.DefaultReps().Scale(*scale), *seed)
	if err != nil {
		return err
	}
	return emitTable(t, *csvPath)
}

func cmdTable1(args []string) error { return tableCmd("table1", args, nil, table1) }

func cmdTable2(args []string) error {
	var platforms string
	return tableCmd("table2", args, func(fs *flag.FlagSet) {
		fs.StringVar(&platforms, "platforms", strings.Join(paperPlatforms, ","), "comma-separated platforms")
	}, func(reps repro.RepCounts, seed uint64) (*repro.RenderTable, error) {
		return table2(strings.Split(platforms, ","), reps, seed)
	})
}

// cmdTableN prints Table num (3, 4 or 5): one paper workload's injection
// study.
func cmdTableN(args []string, num int) error {
	return tableCmd(fmt.Sprintf("table%d", num), args, nil,
		func(reps repro.RepCounts, seed uint64) (*repro.RenderTable, error) {
			res, err := injectionStudy(paperWorkloads[num-3], reps, seed)
			if err != nil {
				return nil, err
			}
			return repro.RenderInjectionTable(num, res), nil
		})
}

func cmdTable6(args []string) error {
	fs, scale, seed := scaleFlags("table6")
	csvPath := fs.String("csv", "", "also write the table as CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	all, err := injectionStudies(repro.DefaultReps().Scale(*scale), *seed)
	if err != nil {
		return err
	}
	agg := repro.AggregateChange(all)
	if err := emitTable(repro.RenderTable6(agg), *csvPath); err != nil {
		return err
	}
	return repro.WriteChecks(os.Stdout, repro.CheckInjectionShape(agg))
}

func cmdTable7(args []string) error {
	var original bool
	return tableCmd("table7", args, func(fs *flag.FlagSet) {
		fs.BoolVar(&original, "original", false, "use the original pessimistic merge (for comparison with §5.2)")
	}, func(reps repro.RepCounts, seed uint64) (*repro.RenderTable, error) {
		return table7(reps, seed, !original)
	})
}

// cmdFig prints Figure num (1 or 2) with its box plots.
func cmdFig(args []string, num int) error {
	fig := paperFigures[num-1]
	fs := flag.NewFlagSet(fmt.Sprintf("fig%d", num), flag.ExitOnError)
	reps := fs.Int("reps", 20, "repetitions per box")
	seed := fs.Uint64("seed", 20250706, "base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, err := fig.series(context.Background(), newExec(), *reps, *seed)
	if err != nil {
		return err
	}
	fmt.Print(repro.RenderFigure(num, fig.title, series).Text())
	fmt.Println()
	fmt.Print(repro.RenderBoxPlot("box plots (shared axis)", series, 64))
	return nil
}

func cmdShapeCheck(args []string) error {
	fs, scale, seed := scaleFlags("shapecheck")
	if err := fs.Parse(args); err != nil {
		return err
	}
	all, err := injectionStudies(repro.DefaultReps().Scale(*scale), *seed)
	if err != nil {
		return err
	}
	checks := repro.CheckInjectionShape(repro.AggregateChange(all))
	if err := repro.WriteChecks(os.Stdout, checks); err != nil {
		return err
	}
	for _, c := range checks {
		if !c.Pass {
			return fmt.Errorf("shape check failed: %s", c.Name)
		}
	}
	return nil
}

// cmdReport regenerates the complete evaluation — Tables 1-7 and Figures
// 1-2 — into a directory, as aligned text plus CSV. This is the one-shot
// artifact generator behind EXPERIMENTS.md.
func cmdReport(args []string) error {
	fs, scale, seed := scaleFlags("report")
	dir := fs.String("dir", "report", "output directory")
	figReps := fs.Int("fig-reps", 20, "repetitions per figure box")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	// write stores a built table as name.txt and name.csv; a build error
	// passes through.
	write := func(name string, t *repro.RenderTable, err error) error {
		if err != nil {
			return err
		}
		txt := filepath.Join(*dir, name+".txt")
		if err := os.WriteFile(txt, []byte(t.Text()), 0o644); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*dir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := t.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s (+ .csv)\n", txt)
		return nil
	}

	reps := repro.DefaultReps().Scale(*scale)
	t, err := table1(reps, *seed)
	if err := write("table1", t, err); err != nil {
		return err
	}
	t, err = table2(paperPlatforms, reps, *seed)
	if err := write("table2", t, err); err != nil {
		return err
	}
	all, err := injectionStudies(reps, *seed)
	if err != nil {
		return err
	}
	for i, res := range all {
		if err := write(fmt.Sprintf("table%d", 3+i), repro.RenderInjectionTable(3+i, res), nil); err != nil {
			return err
		}
	}
	agg := repro.AggregateChange(all)
	if err := write("table6", repro.RenderTable6(agg), nil); err != nil {
		return err
	}
	checksPath := filepath.Join(*dir, "shape-checks.txt")
	var checks strings.Builder
	if err := repro.WriteChecks(&checks, repro.CheckInjectionShape(agg)); err != nil {
		return err
	}
	if err := os.WriteFile(checksPath, []byte(checks.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", checksPath)
	t, err = table7(reps, *seed, true)
	if err := write("table7", t, err); err != nil {
		return err
	}
	for i, fig := range paperFigures {
		series, err := fig.series(context.Background(), newExec(), *figReps, *seed)
		if err != nil {
			return err
		}
		if err := write(fmt.Sprintf("fig%d", i+1), repro.RenderFigure(i+1, fig.reportTitle, series), nil); err != nil {
			return err
		}
	}
	return nil
}
