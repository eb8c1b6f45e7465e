package main

// Client mode: drive a running noiselabd (or noisefleet coordinator)
// through service.Client. submit posts an experiment spec (optionally
// waiting for the result), status reports one job, get fetches the stored
// result payload, cancel aborts a job.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/service"
)

// serverFlag adds the shared -server flag.
func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://localhost:8723", "noiselabd base URL")
}

// fleetDefault is the noisefleet coordinator's default base URL, used when
// -fleet is set and -server was left at the noiselabd default.
const fleetDefault = "http://localhost:8733"

// resolveServer picks the target base URL: -fleet retargets an untouched
// -server at the coordinator's default port (the coordinator's API mirrors
// noiselabd's, so everything downstream is shared).
func resolveServer(fs *flag.FlagSet, server string, fleetMode bool) string {
	if fleetMode && !flagChanged(fs, "server") {
		return fleetDefault
	}
	return server
}

func flagChanged(fs *flag.FlagSet, name string) bool {
	changed := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			changed = true
		}
	})
	return changed
}

func cmdSubmit(args []string) error {
	c := newCommon("submit")
	server := serverFlag(c.fs)
	reps := c.fs.Int("reps", 50, "repetitions")
	size := c.fs.String("size", "", "problem size: default or small")
	tracing := c.fs.Bool("tracing", false, "record per-rep traces in the result")
	wait := c.fs.Bool("wait", false, "follow the job's SSE event stream until it finishes, then print the summary")
	fleetMode := c.fs.Bool("fleet", false,
		"target a noisefleet coordinator (default server becomes "+fleetDefault+"); prints per-shard detail with -wait")
	events := c.fs.Bool("events", false, "with -wait: print live rep progress to stderr")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	cl := &service.Client{Name: resolveServer(c.fs, *server, *fleetMode)}
	ctx := context.Background()
	st, err := cl.Submit(ctx, service.JobSpec{
		Platform: *c.platform, Workload: *c.workload, Model: *c.model,
		Strategy: *c.strategy, Seed: *c.seed, Reps: *reps, Size: *size,
		Tracing: *tracing, DLRuntimeNs: *c.dlRuntime, DLPeriodNs: *c.dlPeriod,
	})
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s cached=%v spec=%s\n", st.ID, st.State, st.Cached, st.SpecHash[:12])
	if !*wait {
		return nil
	}
	var progress func(done, total int)
	if *events {
		progress = func(done, total int) { fmt.Fprintf(os.Stderr, "\rreps %d/%d", done, total) }
	}
	st, err = waitDone(ctx, cl, st.ID, progress)
	if *events && st.State != "" {
		fmt.Fprintf(os.Stderr, "\rjob %s %s\n", st.ID, st.State)
	}
	if err != nil {
		return err
	}
	if *fleetMode {
		for _, s := range st.SubJobs {
			fmt.Printf("  shard offset=%d reps=%d node=%s job=%s cached=%v retries=%d\n",
				s.Offset, s.Reps, s.Node, s.JobID, s.Cached, s.Retries)
		}
	}
	return fetchAndPrint(ctx, cl, st.ID, "")
}

// waitDone follows a job to its end and returns its final status; a job
// that did not finish done is an error.
func waitDone(ctx context.Context, cl *service.Client, id string, onProgress func(done, total int)) (service.JobStatus, error) {
	if _, err := cl.WaitDone(ctx, id, onProgress); err != nil {
		return service.JobStatus{}, err
	}
	st, err := cl.Status(ctx, id)
	if err == nil && st.State != service.StateDone {
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	return st, err
}

// parseJobFlags parses the flags of a command that names one job; extra
// (may be nil) adds the command's own flags.
func parseJobFlags(name string, args []string, extra func(*flag.FlagSet)) (*service.Client, string, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	server := serverFlag(fs)
	job := fs.String("job", "", "job ID (required)")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if *job == "" {
		return nil, "", fmt.Errorf("-job is required")
	}
	return &service.Client{Name: *server}, *job, nil
}

func cmdStatus(args []string) error {
	cl, job, err := parseJobFlags("status", args, nil)
	if err != nil {
		return err
	}
	st, err := cl.Status(context.Background(), job)
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s cached=%v spec=%s", st.ID, st.State, st.Cached, st.SpecHash[:12])
	if st.Error != "" {
		fmt.Printf(" error=%q", st.Error)
	}
	fmt.Println()
	return nil
}

func cmdGet(args []string) error {
	var out string
	cl, job, err := parseJobFlags("get", args, func(fs *flag.FlagSet) {
		fs.StringVar(&out, "o", "", "write the raw result JSON to this file instead of summarizing")
	})
	if err != nil {
		return err
	}
	return fetchAndPrint(context.Background(), cl, job, out)
}

// fetchAndPrint downloads a result payload and either saves it raw or
// prints the summary line.
func fetchAndPrint(ctx context.Context, cl *service.Client, id, outPath string) error {
	data, err := cl.Result(ctx, id)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("result %s -> %s (%d bytes)\n", id, outPath, len(data))
		return nil
	}
	var res service.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	s := res.Summary
	fmt.Printf("%s %s %s %s: n=%d mean=%.2fms sd=%.2fms cv=%.3f min=%.2f p95=%.2f max=%.2f (model %s)\n",
		res.Spec.Platform, res.Spec.Workload, res.Spec.Model, res.Spec.Strategy,
		s.N, s.Mean, s.SD, s.CV, s.Min, s.P95, s.Max, res.ModelVersion)
	return nil
}

func cmdCancel(args []string) error {
	cl, job, err := parseJobFlags("cancel", args, nil)
	if err != nil {
		return err
	}
	state, err := cl.Cancel(context.Background(), job)
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s\n", job, state)
	return nil
}
