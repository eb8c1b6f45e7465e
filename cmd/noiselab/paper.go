package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/paper"
)

// The paper-artifact commands: table1..table7, fig1, fig2, shapecheck and
// report. What each artifact is made of lives in internal/paper; these
// commands parse flags and print or write what its Plan builds.

// figReps is the default rep count per figure box.
const figReps = 20

// scaleFlags returns the flag set of a scaled paper command with its -scale
// (finite, > 0) and -seed flags.
func scaleFlags(name string) (*flag.FlagSet, *float64, *uint64) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	scale := 1.0
	cli := paper.CLI
	fs.Func("scale", fmt.Sprintf("multiply repetition counts by a finite `factor` > 0 (default 1 = CLI depth %d/%d/%d; paper scale needs ~8-40x)",
		cli.Collect, cli.Baseline, cli.Inject), func(s string) (err error) {
		scale, err = paper.ParseScale(s)
		return err
	})
	seed := fs.Uint64("seed", paper.Seed, "base seed")
	return fs, &scale, seed
}

// paperPlan parses a scaled paper command's flags, -scale, -seed and those
// that flags registers (when non-nil), and returns its plan at the scaled
// CLI depth.
func paperPlan(name string, args []string, flags func(*flag.FlagSet)) (*paper.Plan, error) {
	fs, scale, seed := scaleFlags(name)
	if flags != nil {
		flags(fs)
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &paper.Plan{Exec: newExec(), Reps: paper.CLI.Scale(*scale), Seed: *seed}, nil
}

// writeCSV writes t as CSV to path.
func writeCSV(t *repro.RenderTable, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// cmdTable prints table id (table1..table7) and optionally writes it as
// CSV; Table 6 prints its shape checks after it.
func cmdTable(id string, args []string) error {
	var csvPath, platforms string
	var original bool
	plan, err := paperPlan(id, args, func(fs *flag.FlagSet) {
		fs.StringVar(&csvPath, "csv", "", "also write the table as CSV to this file")
		switch id {
		case "table2":
			fs.StringVar(&platforms, "platforms", strings.Join(paper.Platforms, ","), "comma-separated platforms")
		case "table7":
			fs.BoolVar(&original, "original", false, "use the original pessimistic merge (for comparison with §5.2)")
		}
	})
	if err != nil {
		return err
	}
	if id == "table2" {
		plan.Table2Platforms = strings.Split(platforms, ",")
	}
	plan.OriginalMerge = original
	a, err := plan.Build(context.Background(), id)
	if err != nil {
		return err
	}
	fmt.Print(a.Table.Text())
	if csvPath != "" {
		if err := writeCSV(a.Table, csvPath); err != nil {
			return err
		}
		fmt.Printf("csv -> %s\n", csvPath)
	}
	if a.Checks == nil {
		return nil
	}
	return repro.WriteChecks(os.Stdout, a.Checks)
}

// cmdFig prints Figure num (1 or 2) with its box plots.
func cmdFig(args []string, num int) error {
	fig := paper.Figures[num-1]
	fs := flag.NewFlagSet(fmt.Sprintf("fig%d", num), flag.ExitOnError)
	reps := fs.Int("reps", figReps, "repetitions per box")
	seed := fs.Uint64("seed", paper.Seed, "base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, err := fig.Series(context.Background(), newExec(), *reps, *seed)
	if err != nil {
		return err
	}
	fmt.Print(repro.RenderFigure(num, fig.CommandTitle, series).Text())
	fmt.Println()
	fmt.Print(repro.RenderBoxPlot("box plots (shared axis)", series, 64))
	return nil
}

// cmdShapeCheck runs Tables 3-5 and prints the paper's headline direction
// checks over their Table 6 aggregate; any failed check fails the command.
func cmdShapeCheck(args []string) error {
	plan, err := paperPlan("shapecheck", args, nil)
	if err != nil {
		return err
	}
	a, err := plan.Build(context.Background(), "table6")
	if err != nil {
		return err
	}
	if err := repro.WriteChecks(os.Stdout, a.Checks); err != nil {
		return err
	}
	for _, c := range a.Checks {
		if !c.Pass {
			return fmt.Errorf("shape check failed: %s", c.Name)
		}
	}
	return nil
}

// cmdReport regenerates the complete evaluation — Tables 1-7 and Figures
// 1-2 — into a directory, as aligned text plus CSV, and the shape checks as
// shape-checks.txt. This is the one-shot artifact generator behind
// EXPERIMENTS.md.
func cmdReport(args []string) error {
	var dir string
	var reps int
	plan, err := paperPlan("report", args, func(fs *flag.FlagSet) {
		fs.StringVar(&dir, "dir", "report", "output directory")
		fs.IntVar(&reps, "fig-reps", figReps, "repetitions per figure box")
	})
	if err != nil {
		return err
	}
	plan.FigReps = reps
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, id := range paper.IDs {
		a, err := plan.Build(context.Background(), id)
		if err != nil {
			return err
		}
		txt := filepath.Join(dir, id+".txt")
		if err := os.WriteFile(txt, []byte(a.Table.Text()), 0o644); err != nil {
			return err
		}
		if err := writeCSV(a.Table, filepath.Join(dir, id+".csv")); err != nil {
			return err
		}
		fmt.Printf("wrote %s (+ .csv)\n", txt)
		if a.Checks == nil {
			continue
		}
		var checks strings.Builder
		if err := repro.WriteChecks(&checks, a.Checks); err != nil {
			return err
		}
		path := filepath.Join(dir, "shape-checks.txt")
		if err := os.WriteFile(path, []byte(checks.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
