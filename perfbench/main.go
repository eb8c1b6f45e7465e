// Command perfbench is the repository's benchmark: a single-process load
// generator and driver. It runs one workload through the public API of
// internal/experiment, internal/analyze, internal/service and
// internal/fleet, checks every output it gets back, and prints one JSON
// result line as the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics on an untraced run.
// With --trace 1 it runs a fixed amount of work three times (untraced,
// traced, traced), reports the per-layer metrics of the traced passes,
// checks that their counts repeat exactly, and writes the spans as
// Chrome trace-event JSON. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the repository checkout the benchmark reads its frozen
	// inputs from; state is the directory it writes caches and the trace
	// file to (created on demand, inside the checkout).
	root, state string
	// tiny shrinks every workload to smoke-test size.
	tiny bool
	// tamper, when non-nil, rewrites an operation's output before it is
	// checked. Tests use it to prove that a corrupted output is counted as
	// a failure.
	tamper func(out []byte) []byte
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window (untraced runs)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink every workload to smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	c := &config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1,
		root: ".", state: stateDir(), tiny: *tiny,
	}
	if os.Getenv(setupOnlyEnv) != "" {
		if err := setupOnly(context.Background(), c, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := run(context.Background(), c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// stateDir is where the benchmark writes: the build directory the run
// script also compiles into, so everything stays inside the checkout.
func stateDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts attempted operations and the ones that failed: an error
// response, a failed job, or an output that fails its correctness check.
type checker struct {
	out               io.Writer
	attempted, failed int
}

func (k *checker) record(ok bool, format string, args ...any) {
	k.attempted++
	if !ok {
		k.failed++
		fmt.Fprintf(k.out, "FAIL "+format+"\n", args...)
	}
}

func run(ctx context.Context, c *config, stdout io.Writer) (*result, error) {
	w, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(c.state, 0o755); err != nil {
		return nil, err
	}
	chk := &checker{out: stdout}
	var metrics map[string]metric
	var err error
	if c.trace {
		metrics, err = runTraced(ctx, c, w, chk, stdout)
	} else {
		metrics, err = runEndToEnd(ctx, c, w, chk)
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}, nil
}

// workloads are the benchmark's workloads by name; README.md says why each
// was chosen.
var workloads = map[string]workload{
	"table3-nbody":      {setup: setupTable3, verify: verifyTable3, tracedOps: oneOp},
	"analyze-logwriter": {setup: setupAnalyze, verify: verifyAnalyze, tracedOps: oneOp},
	"daemon-mix":        {setup: setupDaemon, verify: verifyServing, tracedOps: requestsPerClient},
	"fleet-mix":         {setup: setupFleet, verify: verifyServing, tracedOps: requestsPerClient},
}

func oneOp(*config) int { return 1 }

func requestsPerClient(c *config) int {
	if c.tiny {
		return 6
	}
	return 150
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workload is one traffic mix or artifact the benchmark drives.
type workload struct {
	// setup builds everything the first operation needs: the process is
	// ready for its first call when it returns.
	setup func(ctx context.Context, c *config) (env, error)
	// verify checks every operation's output, outside any timed window,
	// and may run extra checks of its own; each counts as attempted.
	verify func(ctx context.Context, c *config, ops []*op, chk *checker) error
	// tracedOps is the fixed size of a traced pass: artifacts, or
	// requests per client.
	tracedOps func(c *config) int
}

// env is one set-up instance of a workload.
type env interface {
	// warm runs one small operation outside the workload's inputs, so
	// that timed operations start warm.
	warm(ctx context.Context) error
	// pass runs operations until stop says enough. tr is nil on
	// untraced passes.
	pass(ctx context.Context, stop stopRule, tr *tracer) ([]*op, error)
	// layers adds the per-layer figures of the last traced pass to m.
	layers(ctx context.Context, m map[string]float64, p passStats, tr *tracer) error
	close()
}

// op is one operation: a study, a sweep, or a request.
type op struct {
	// class is "miss" for operations that run the simulation engine
	// (every study and sweep; new single-node jobs), "hit" for
	// resubmits, "cluster" for cluster jobs.
	class string
	// key groups operations that must produce identical outputs.
	key        string
	start, end time.Time
	err        error
	// out is the output verify checks; val carries any decoded form.
	out []byte
	val any
}

func (o *op) ms() float64 { return float64(o.end.Sub(o.start)) / 1e6 }

// stopRule ends a pass after count operations, or when count is 0, once
// the deadline has passed (at least one operation always runs).
type stopRule struct {
	until time.Time
	count int
}

func (s stopRule) more(done int) bool {
	if s.count > 0 {
		return done < s.count
	}
	return done == 0 || time.Now().Before(s.until)
}

// setupLaunches is how many times an untraced run launches the benchmark
// to time its set-up; the reported set-up time is their median.
const setupLaunches = 31

// setupOnlyEnv, when set, makes the benchmark set the workload up once,
// print "ready" and exit. An untraced run launches itself this way to time
// set-up from process start.
const setupOnlyEnv = "PERFBENCH_SETUP_ONLY"

func setupOnly(ctx context.Context, c *config, stdout io.Writer) error {
	w, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if err := os.MkdirAll(c.state, 0o755); err != nil {
		return err
	}
	e, err := w.setup(ctx, c)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	e.close()
	return nil
}

// timeSetups launches the benchmark setupLaunches times in set-up-only
// mode and returns, for each launch, the seconds from starting the process
// to reading its "ready" line.
func timeSetups(ctx context.Context, c *config) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	state, err := filepath.Abs(c.state)
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", c.workload, "--seed", strconv.FormatUint(c.seed, 10)}
	if c.tiny {
		args = append(args, "--tiny")
	}
	var times []float64
	for i := 0; i < setupLaunches; i++ {
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Dir = c.root
		cmd.Env = append(os.Environ(), setupOnlyEnv+"=1", "CARGO_TARGET_DIR="+state)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		ready := time.Since(start)
		_, _ = io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil || readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up launch %d: %v %v %q: %s", i, err, readErr, line, bytes.TrimSpace(stderr.Bytes()))
		}
		times = append(times, ready.Seconds())
	}
	return times, nil
}

func runEndToEnd(ctx context.Context, c *config, w workload, chk *checker) (map[string]metric, error) {
	times, err := timeSetups(ctx, c)
	if err != nil {
		return nil, err
	}
	e, err := w.setup(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	if err := e.warm(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	p, ops, err := timedPass(ctx, e, stopRule{until: time.Now().Add(time.Duration(c.seconds * float64(time.Second)))}, nil)
	if err != nil {
		return nil, err
	}
	if err := w.verify(ctx, c, ops, chk); err != nil {
		return nil, err
	}

	var miss []float64
	done := 0
	for _, o := range ops {
		if o.err == nil {
			done++
		}
		if o.class == "miss" {
			miss = append(miss, o.ms())
		}
	}
	sort.Float64s(miss)
	values := map[string]float64{
		"setup_s":       median(times),
		"ops_per_s":     float64(done) / p.wall.Seconds(),
		"miss_p50_ms":   quantile(miss, 0.50),
		"miss_p90_ms":   quantile(miss, 0.90),
		"cpu_ms_per_op": float64(p.cpu) / 1e6 / float64(len(ops)),
		"mem_p90_mb":    p.memP90 / (1 << 20),
	}
	out := make(map[string]metric, len(values))
	for name, v := range values {
		out[name] = metric{v, endToEndUnits[name]}
	}
	return out, nil
}

// runTraced runs the traced-run protocol: one untraced pass of fixed size
// as the overhead reference, then two traced passes of the same work, each
// on a fresh set-up. Per-layer metrics come from the first traced pass;
// every count must repeat exactly in the second.
func runTraced(ctx context.Context, c *config, w workload, chk *checker, stdout io.Writer) (map[string]metric, error) {
	stop := stopRule{count: w.tracedOps(c)}
	var all []*op
	var walls [3]time.Duration
	var figures [2]map[string]float64
	var tr0 *tracer
	for i := 0; i < 3; i++ {
		e, err := w.setup(ctx, c)
		if err == nil {
			if err = e.warm(ctx); err != nil {
				e.close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		var tr *tracer
		if i > 0 {
			tr = newTracer()
		}
		p, ops, err := timedPass(ctx, e, stop, tr)
		if err != nil {
			e.close()
			return nil, err
		}
		walls[i] = p.opWall(ops)
		all = append(all, ops...)
		if tr != nil {
			m := make(map[string]float64, len(layerMetrics))
			if err := e.layers(ctx, m, p, tr); err != nil {
				e.close()
				return nil, err
			}
			figures[i-1] = m
			if tr0 == nil {
				tr0 = tr
			}
		}
		e.close()
	}
	if err := w.verify(ctx, c, all, chk); err != nil {
		return nil, err
	}

	m := figures[0]
	inexact := 0
	for _, d := range layerMetrics {
		if d.exact && m[d.name] != figures[1][d.name] {
			inexact++
			fmt.Fprintf(stdout, "NOT EXACT %s: %v then %v\n", d.name, m[d.name], figures[1][d.name])
		}
	}
	m["bench.inexact_counts"] = float64(inexact)
	traced := (walls[1] + walls[2]) / 2
	m["bench.trace_overhead_ratio"] = float64(traced)/float64(walls[0]) - 1

	path := filepath.Join(c.state, "perfbench-trace-"+c.workload+".json")
	if err := tr0.writeFile(path, c.workload); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trace -> %s (%d spans)\n", path, len(tr0.spans))
	fmt.Fprintf(stdout, "tracing overhead %+.1f%% (untraced %.3fs, traced %.3fs and %.3fs)\n",
		100*m["bench.trace_overhead_ratio"], walls[0].Seconds(), walls[1].Seconds(), walls[2].Seconds())

	out := make(map[string]metric, len(layerMetrics))
	for _, d := range layerMetrics {
		out[d.name] = metric{m[d.name], d.unit}
		exact := ""
		if d.exact {
			exact = "exact"
			if m[d.name] != figures[1][d.name] {
				exact = "NOT EXACT"
			}
		}
		fmt.Fprintf(stdout, "%-32s %14.4f %-10s %s\n", d.name, m[d.name], d.unit, exact)
	}
	return out, nil
}
