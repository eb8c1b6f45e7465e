package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f redirected to a pipe and returns what fn wrote
// to it.
func capture(t *testing.T, f **os.File, fn func() error) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	outCh := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		outCh <- string(data)
	}()
	cmdErr := fn()
	w.Close()
	*f = old
	out := <-outCh
	r.Close()
	if cmdErr != nil {
		t.Fatalf("command failed: %v", cmdErr)
	}
	return out
}

func TestCmdPlatformsAndWorkloads(t *testing.T) {
	out := captureStdout(t, cmdPlatforms)
	for _, want := range []string{"intel-9700kf", "amd-9950x3d", "a64fx-reserved"} {
		if !strings.Contains(out, want) {
			t.Fatalf("platforms output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, cmdWorkloads)
	for _, want := range []string{"nbody", "babelstream", "minife", "schedbench"} {
		if !strings.Contains(out, want) {
			t.Fatalf("workloads output missing %q", want)
		}
	}
}

func TestCmdRunWritesTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-workload", "schedbench", "-trace", path, "-seed", "3"})
	})
	if !strings.Contains(out, "exec time:") {
		t.Fatalf("run output: %s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "irq_noise") {
		t.Fatal("trace file has no events")
	}
}

func TestCmdGenConfigInjectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	out := captureStdout(t, func() error {
		return cmdGenConfig([]string{"-workload", "schedbench", "-collect", "6", "-o", cfgPath})
	})
	if !strings.Contains(out, "config:") {
		t.Fatalf("gen-config output: %s", out)
	}
	out = captureStdout(t, func() error {
		return cmdInject([]string{"-workload", "schedbench", "-config", cfgPath, "-reps", "2", "-v"})
	})
	if !strings.Contains(out, "injected:") || !strings.Contains(out, "replication accuracy") {
		t.Fatalf("inject output: %s", out)
	}
}

func TestCmdInjectRequiresConfig(t *testing.T) {
	if err := cmdInject([]string{}); err == nil {
		t.Fatal("inject without -config should error")
	}
}

func TestCmdTracesAnalysis(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.txt")
	p2 := filepath.Join(dir, "b.txt")
	for i, p := range []string{p1, p2} {
		captureStdout(t, func() error {
			return cmdRun([]string{"-workload", "schedbench", "-trace", p, "-seed", string(rune('1' + i))})
		})
	}
	out := captureStdout(t, func() error { return cmdTraces([]string{"-top", "3", p1, p2}) })
	for _, want := range []string{"per-source statistics", "worst case", "per-CPU noise", "delta refinement"} {
		if !strings.Contains(out, want) {
			t.Fatalf("traces output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdTracesNoArgs(t *testing.T) {
	if err := cmdTraces([]string{}); err == nil {
		t.Fatal("traces without files should error")
	}
}

func TestCmdFig4Demo(t *testing.T) {
	out := captureStdout(t, func() error { return cmdFig4(nil) })
	for _, want := range []string{"worst-case trace", "refined (delta) trace", "30.000 ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdFig3PrintsTraceSample(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFig3([]string{"-workload", "schedbench", "-n", "5"})
	})
	if !strings.Contains(out, "Figure 3") {
		t.Fatalf("fig3 output:\n%s", out)
	}
}

func TestNativeWorkloadBuilders(t *testing.T) {
	for _, name := range []string{"nbody", "babelstream", "minife", "schedbench"} {
		fn, desc, err := nativeWorkload(name, 0, 2)
		if err != nil || fn == nil || desc == "" {
			t.Fatalf("nativeWorkload(%q): %v", name, err)
		}
	}
	if _, _, err := nativeWorkload("fft", 0, 2); err == nil {
		t.Fatal("unknown native workload should error")
	}
	// A tiny one actually runs.
	fn, _, err := nativeWorkload("schedbench", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	fn()
}

// TestCmdTimeline: -timeline-out records the real run through the runtime
// executor — I/O devices registered, so a logwriter run shows its io-wait
// spans — without changing what the run simulates.
func TestCmdTimeline(t *testing.T) {
	args := []string{"-workload", "logwriter", "-platform", "a64fx-reserved"}
	plain := captureStdout(t, func() error { return cmdRun(args) })

	path := filepath.Join(t.TempDir(), "tl.json")
	gTimelineOut, timelineOnce = path, sync.Once{}
	t.Cleanup(func() { gTimelineOut, timelineOnce = "", sync.Once{} })
	recorded := captureStdout(t, func() error { return cmdRun(args) })
	if !strings.HasPrefix(plain, "exec time:") || recorded != plain {
		t.Fatalf("exec time with -timeline-out %q, without %q", recorded, plain)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"io-wait"`) {
		t.Fatal("timeline holds no io-wait spans")
	}
}

// setTimelineOut points -timeline-out at path for the rest of the test.
func setTimelineOut(t *testing.T, path string) {
	gTimelineOut, timelineOnce = path, sync.Once{}
	t.Cleanup(func() { gTimelineOut, timelineOnce = "", sync.Once{} })
}

// TestCmdTimelineOutEverySubcommand: every subcommand that simulates
// locally, through the shared executor or a single run, honors the global
// -timeline-out flag. Run at its smallest flags, each writes a non-empty
// Chrome trace file.
func TestCmdTimelineOutEverySubcommand(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "cfg.json")
	tiny := []string{"-platform", "tiny-test", "-workload", "schedbench"}
	with := func(extra ...string) []string { return append(append([]string{}, tiny...), extra...) }
	cases := []struct {
		name string
		run  func() error
	}{
		{"run", func() error { return cmdRun(tiny) }},
		{"fig3", func() error { return cmdFig3(tiny) }},
		{"baseline", func() error { return cmdBaseline(with("-reps", "2")) }},
		{"gen-config", func() error { return cmdGenConfig(with("-collect", "4", "-o", cfg)) }},
		{"inject", func() error { return cmdInject(with("-config", cfg, "-reps", "2")) }},
		{"fig1", func() error { return cmdFig([]string{"-reps", "2"}, 1) }},
		{"fig2", func() error { return cmdFig([]string{"-reps", "2"}, 2) }},
		{"fig5", func() error { return cmdFig5(with("-collect", "4")) }},
		{"table1", func() error { return cmdTable("table1", []string{"-scale", "0.02"}) }},
		{"advise", func() error { return cmdAdvise(with("-collect", "4", "-reps", "2")) }},
		{"runlevel", func() error { return cmdRunlevel(with("-reps", "2", "-workloads", "schedbench")) }},
		{"cluster", func() error {
			return cmdCluster([]string{"-reps", "1", "-policies", "random", "-tenants", "1", "-jobs", "1"})
		}},
		{"analyze", func() error {
			return cmdAnalyze([]string{"-platform", "tiny-test", "-workload", "nbody", "-size", "small",
				"-sources", "irq", "-ladder", "1,2", "-reps", "2"})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+"-tl.json")
			setTimelineOut(t, path)
			captureStdout(t, c.run)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatalf("%s -timeline-out wrote no file: %v", c.name, err)
			}
			if fi.Size() == 0 {
				t.Fatalf("%s -timeline-out wrote an empty file", c.name)
			}
		})
	}
}

// TestCmdAnalyzeTimelineOutKeepsArtifact: recording -timeline-out is
// passive, so analyze -o writes the same artifact bytes with and without
// it.
func TestCmdAnalyzeTimelineOutKeepsArtifact(t *testing.T) {
	dir := t.TempDir()
	artifact := func(name string) []byte {
		out := filepath.Join(dir, name)
		captureStdout(t, func() error {
			return cmdAnalyze([]string{"-platform", "tiny-test", "-workload", "nbody", "-size", "small",
				"-sources", "irq", "-ladder", "1,2", "-reps", "2", "-o", out})
		})
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := artifact("plain.json")
	setTimelineOut(t, filepath.Join(dir, "tl.json"))
	if recorded := artifact("recorded.json"); string(recorded) != string(plain) {
		t.Fatalf("analyze -o artifact changed under -timeline-out:\n%s\nvs\n%s", recorded, plain)
	}
}

func TestCmdTable1TinyScale(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "t1.csv")
	out := captureStdout(t, func() error {
		return cmdTable("table1", []string{"-scale", "0.05", "-csv", csv})
	})
	for _, want := range []string{"Table 1", "nbody", "babelstream", "minife"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Tracing Off") {
		t.Fatal("csv missing header")
	}
}

func TestCmdAdviseTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdAdvise([]string{"-workload", "nbody", "-collect", "6", "-reps", "2",
			"-worst-weight", "0.5"})
	})
	for _, want := range []string{"recommended:", "strategy", "baseline(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("advise output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdAdviseRejectsBadWeight(t *testing.T) {
	if err := cmdAdvise([]string{"-worst-weight", "3", "-collect", "4", "-reps", "2"}); err == nil {
		t.Fatal("bad objective weight should error")
	}
}

func TestCmdRunlevelTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdRunlevel([]string{"-reps", "2", "-workloads", "nbody"})
	})
	for _, want := range []string{"runlevel 5", "rl5 mean", "nbody"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runlevel output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdBaselineTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdBaseline([]string{"-workload", "schedbench", "-reps", "3"})
	})
	if !strings.Contains(out, "mean=") || !strings.Contains(out, "sd=") {
		t.Fatalf("baseline output: %s", out)
	}
}

func TestCmdFig5Structure(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFig5([]string{"-workload", "schedbench", "-collect", "4"})
	})
	for _, want := range []string{"Figure 5", `"cpus"`, `"policy"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdFig5HonorsGlobalFlags: fig5 runs through the shared executor, so
// -v reports its collection progress on stderr.
func TestCmdFig5HonorsGlobalFlags(t *testing.T) {
	gVerbose = true
	t.Cleanup(func() { gVerbose = false })
	var stdout string
	stderr := capture(t, &os.Stderr, func() error {
		stdout = captureStdout(t, func() error {
			return cmdFig5([]string{"-workload", "schedbench", "-collect", "4"})
		})
		return nil
	})
	if !strings.Contains(stderr, "collect 4/4") {
		t.Fatalf("fig5 -v stderr lacks collect progress:\n%s", stderr)
	}
	if !strings.Contains(stdout, "Figure 5") || strings.Contains(stdout, "collect ") {
		t.Fatalf("fig5 -v stdout:\n%s", stdout)
	}
}

// TestCmdDeadlineFlags: every subcommand that registers -dl-runtime-ns and
// -dl-period-ns either applies them or rejects them; none ignores them.
// fig3 applies them, so its trace differs from the fair-class run and an
// invalid pair fails as it does for baseline.
func TestCmdDeadlineFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"gen-config", cmdGenConfig, []string{"-o", filepath.Join(dir, "c.json")}},
		{"fig5", cmdFig5, nil},
		{"advise", cmdAdvise, nil},
		{"runlevel", cmdRunlevel, nil},
		{"analyze", cmdAnalyze, nil},
		{"fig3", cmdFig3, nil},
	} {
		args := append([]string{"-workload", "schedbench", "-dl-runtime-ns", "5", "-dl-period-ns", "0"}, c.args...)
		if err := c.cmd(args); err == nil || !strings.Contains(err.Error(), "dl-") {
			t.Errorf("%s -dl-runtime-ns 5 -dl-period-ns 0: err %v, want a -dl-* error", c.name, err)
		}
	}

	fig3 := func(extra ...string) string {
		return captureStdout(t, func() error {
			return cmdFig3(append([]string{"-workload", "logwriter", "-platform", "tiny-test", "-n", "40"}, extra...))
		})
	}
	if fig3() == fig3("-dl-runtime-ns", "200000", "-dl-period-ns", "1000000") {
		t.Fatal("fig3 ignored -dl-runtime-ns/-dl-period-ns")
	}
}

func TestCmdGenConfigOriginalMerge(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "orig.json")
	captureStdout(t, func() error {
		return cmdGenConfig([]string{"-workload", "schedbench", "-collect", "5",
			"-original", "-o", cfgPath})
	})
	f, err := os.Open(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := readConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Improved {
		t.Fatal("-original should produce a non-improved config")
	}
}

// TestCmdPaperOutputsPinned pins the stdout of the paper-artifact commands
// at small scale by SHA-256, so a refactor of how the commands assemble
// their studies cannot change a byte of what they print. Output does not
// depend on -parallel. The report case pins every file report writes, which
// covers table4..table6 and the shape checks too.
func TestCmdPaperOutputsPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"table1", func() error { return cmdTable("table1", []string{"-scale", "0.02"}) },
			"4e08139c76c79939ed2e52ca89742fa3345164811bc0152d922f6b4ec71aacf0"},
		{"table2", func() error { return cmdTable("table2", []string{"-scale", "0.02"}) },
			"096017c93d297af0ae7e874fae95c4d39d0b9811ca9b684e08e2c514c0addd22"},
		{"table3", func() error { return cmdTable("table3", []string{"-scale", "0.02"}) },
			"e38e084509ba49af2cba5dec06ddb61a88b97b889e2597aa87b3c610cc261b1e"},
		{"table7", func() error { return cmdTable("table7", []string{"-scale", "0.02"}) },
			"9685019f5313c4d10eaef7656464bce8fe1cf1c0f740d2b4dba4a7d828052cb6"},
		{"fig1", func() error { return cmdFig([]string{"-reps", "2"}, 1) },
			"ead9dd484d553f2a8063f14b0c160a71ca199b7f403e7da3b786fe31cede921e"},
		{"fig2", func() error { return cmdFig([]string{"-reps", "2"}, 2) },
			"9b7f1a0c946db41bc6ba153f0b64d999be30b0029244e66b85634c5c45199e62"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256([]byte(captureStdout(t, c.run)))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("%s stdout sha256 = %s, want %s", c.name, got, c.want)
			}
		})
	}
	t.Run("report", func(t *testing.T) {
		dir := t.TempDir()
		captureStdout(t, func() error {
			return cmdReport([]string{"-scale", "0.02", "-fig-reps", "2", "-dir", dir})
		})
		want := map[string]string{
			"table1.txt":       "4e08139c76c79939ed2e52ca89742fa3345164811bc0152d922f6b4ec71aacf0",
			"table1.csv":       "bb8e31b8d3bf3bfc317cc9ad9789aaf92f9308674b8515c1b2b18c1971bfbe99",
			"table2.txt":       "096017c93d297af0ae7e874fae95c4d39d0b9811ca9b684e08e2c514c0addd22",
			"table2.csv":       "7227d5491e86abf532644e88de815569a87ca41b5dae11aed380e5d8792afe4d",
			"table3.txt":       "e38e084509ba49af2cba5dec06ddb61a88b97b889e2597aa87b3c610cc261b1e",
			"table3.csv":       "5a7a9ff4f2c9d106d33cf5b801672f786c7c1ff6ef09d48f602d6424f970dbc7",
			"table4.txt":       "10b3b77e362c574975e841b2242db74e5d7a0086928e1d1dbbf887456c647e28",
			"table4.csv":       "6f968a3cfae0ac54fffff025db4df81b804f0253d483e08a6eb7c7f2083a97f9",
			"table5.txt":       "7103003ef2a6f6689e9b9ea3c8d20bd497a41b61dc1b179012ba795177e48100",
			"table5.csv":       "35da61cfc6f8541eafdd7c087c36755a0e79edb2292d44225643eae47c45d639",
			"table6.txt":       "72af4a46658abcb4c7e694b9ab014fce69a65ec6683926e118164b5c2b06b855",
			"table6.csv":       "4f930e559cf5d55fb896008ff8954f0e068238bd0d685a1ae14a88f256d02e5c",
			"shape-checks.txt": "72c2561d92886f88d9e95d1b00ecca41e0c5827b6f7a5afa6aa9fc70deec3333",
			"table7.txt":       "9685019f5313c4d10eaef7656464bce8fe1cf1c0f740d2b4dba4a7d828052cb6",
			"table7.csv":       "715bae0068faa1f20344cdfae776697048f8faf95cedbeba20cf92a6f018cc8c",
			"fig1.txt":         "7e0dbc2a8176fe515ae821661b6550129db741358a2af789c0ce935c871ced50",
			"fig1.csv":         "13d3b7ef3ebe34f6b8ca7ae22749cae7bd7cb30f5ce857f23ff55ca0a21bad9f",
			"fig2.txt":         "0078573ad7568445ba27afeaccb9eda76102d800935a6c0c0c517b19e89212f6",
			"fig2.csv":         "46c4bb5fe8e73a6ce1bd76926e3a5d064e46bcacaaa408bb2b70fce084714d81",
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(want) {
			t.Errorf("report wrote %d files, want %d", len(entries), len(want))
		}
		for name, w := range want {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != w {
				t.Errorf("report %s sha256 = %s, want %s", name, got, w)
			}
		}
	})
}

// TestScaleFlagRejectsBadDepth: -scale must be finite and positive. A zero
// or negative scale used to run every study at the 2-rep floor and exit 0.
func TestScaleFlagRejectsBadDepth(t *testing.T) {
	for _, v := range []string{"0", "-0", "-3", "NaN", "+Inf", "-Inf", "1e400", "", "x"} {
		fs, _, _ := scaleFlags("table1")
		fs.Init("table1", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-scale", v}); err == nil {
			t.Errorf("-scale %s parsed without error", v)
		}
	}
	fs, scale, _ := scaleFlags("table1")
	if err := fs.Parse([]string{"-scale", "0.5"}); err != nil || *scale != 0.5 {
		t.Fatalf("-scale 0.5: scale %v, err %v", *scale, err)
	}
}
