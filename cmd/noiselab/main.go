// Command noiselab is the CLI for the noise-injection laboratory: it runs
// single simulated executions, drives the three-stage injector pipeline
// (collect → refine → generate → inject), and regenerates every table and
// figure of the paper's evaluation.
//
// Usage:
//
//	noiselab <subcommand> [flags]
//
// Subcommands:
//
//	platforms            list platform presets
//	workloads            list workloads
//	run                  one simulated execution (optionally traced)
//	baseline             repeated executions + summary statistics
//	gen-config           injector stages 1+2: collect traces, refine, emit config JSON
//	inject               injector stage 3: replay a config during repeated executions
//	table1 .. table7     regenerate the paper's tables
//	fig1 fig2            regenerate the motivation figures (box series)
//	fig3 fig4 fig5       print design-figure artifacts (trace sample,
//	                     refinement demo, config structure)
//	shapecheck           quick run of Tables 3-5 + headline direction checks
//	native-inject        best-effort replay of a config on THIS machine
//	advise               benchmark all strategies and recommend one (§6)
//	analyze              differential bottleneck analysis: sweep each noise
//	                     source class across an intensity ladder and rank
//	                     which resource gates the workload
//	traces               analyze collected trace files (per-source stats)
//	report               regenerate every table and figure into a directory
//	runlevel             baseline variability at runlevel 5 vs 3 (§5.1)
//	cluster              simulated-datacenter straggler study: placement
//	                     policies on a multi-node topology
//	submit status get cancel
//	                     client mode against a running noiselabd (or, with
//	                     submit -fleet, a noisefleet coordinator)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Global flags (before the subcommand): worker-pool size, progress,
// observability, and profiling outputs.
var (
	gParallel    int
	gVerbose     bool
	gObs         bool
	gTimelineOut string
	gCPUProfile  string
	gMemProfile  string
)

func main() {
	os.Exit(run())
}

// run carries the real main body so profile-writing defers fire before the
// process exits.
func run() int {
	global := flag.NewFlagSet("noiselab", flag.ExitOnError)
	global.Usage = usage
	global.IntVar(&gParallel, "parallel", 0,
		"worker-pool size for repetitions (0 = REPRO_PARALLEL or GOMAXPROCS; 1 = sequential)")
	global.BoolVar(&gVerbose, "v", false, "report study progress (cell k/N) to stderr")
	global.BoolVar(&gObs, "obs", false,
		"attach the passive observability recorder and print its counter registry to stderr on exit")
	global.StringVar(&gTimelineOut, "timeline-out", "",
		"record the first run's scheduling timeline and write it as Chrome trace-event JSON (open in Perfetto)")
	global.StringVar(&gCPUProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	global.StringVar(&gMemProfile, "memprofile", "", "write a heap profile (after GC) to this file on exit")
	if err := global.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if global.NArg() < 1 {
		usage()
		return 2
	}
	if gCPUProfile != "" {
		f, err := os.Create(gCPUProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "noiselab: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "noiselab: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if gMemProfile != "" {
		defer func() {
			f, err := os.Create(gMemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "noiselab: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "noiselab: -memprofile: %v\n", err)
			}
		}()
	}
	cmd, args := global.Arg(0), global.Args()[1:]
	var err error
	switch cmd {
	case "platforms":
		err = cmdPlatforms()
	case "workloads":
		err = cmdWorkloads()
	case "run":
		err = cmdRun(args)
	case "baseline":
		err = cmdBaseline(args)
	case "gen-config":
		err = cmdGenConfig(args)
	case "inject":
		err = cmdInject(args)
	case "table1":
		err = cmdTable1(args)
	case "table2":
		err = cmdTable2(args)
	case "table3":
		err = cmdTableN(args, 3)
	case "table4":
		err = cmdTableN(args, 4)
	case "table5":
		err = cmdTableN(args, 5)
	case "table6":
		err = cmdTable6(args)
	case "table7":
		err = cmdTable7(args)
	case "fig1":
		err = cmdFig(args, 1)
	case "fig2":
		err = cmdFig(args, 2)
	case "fig3":
		err = cmdFig3(args)
	case "fig4":
		err = cmdFig4(args)
	case "fig5":
		err = cmdFig5(args)
	case "shapecheck":
		err = cmdShapeCheck(args)
	case "native-inject":
		err = cmdNativeInject(args)
	case "advise":
		err = cmdAdvise(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "traces":
		err = cmdTraces(args)
	case "report":
		err = cmdReport(args)
	case "runlevel":
		err = cmdRunlevel(args)
	case "cluster":
		err = cmdCluster(args)
	case "submit":
		err = cmdSubmit(args)
	case "status":
		err = cmdStatus(args)
	case "get":
		err = cmdGet(args)
	case "cancel":
		err = cmdCancel(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "noiselab: unknown subcommand %q\n\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "noiselab %s: %v\n", cmd, err)
		return 1
	}
	if gObs {
		fmt.Fprintln(os.Stderr, "--- observability registry ---")
		obsRegistry().WritePrometheus(os.Stderr)
	}
	return 0
}

func usage() {
	fmt.Fprint(os.Stderr, `noiselab — reproducible performance evaluation under noise injection

  noiselab [-parallel N] [-v] <subcommand> [flags]

  noiselab platforms | workloads
  noiselab run        -platform P -workload W -model M -strategy S [-seed N] [-trace out.txt]
  noiselab baseline   -platform P -workload W -model M -strategy S [-reps N]
  noiselab gen-config -platform P -workload W [-model M -strategy S] [-collect N]
                      [-original] -o config.json
  noiselab inject     -platform P -workload W -model M -strategy S -config config.json [-reps N]
  noiselab table1 .. table7 [-scale F] [-seed N]
  noiselab fig1 | fig2 [-reps N]
  noiselab fig3 | fig4 | fig5
  noiselab shapecheck [-scale F]
  noiselab cluster    [-nodes N] [-straggler I -straggler-scale F] [-policies a,b]
                      [-tenants N] [-jobs N] [-width N] [-worker-ms F] [-arrival-ms F]
                      [-reps N] [-seed N] [-o study.json]
  noiselab analyze    -platform P -workload W -model M -strategy S [-seed N]
                      [-reps N] [-sources a,b] [-ladder 1,2,4,8] [-timeline]
                      [-o artifact.json] [-server URL | -fleet]
  noiselab submit     -server URL -platform P -workload W -model M -strategy S
                      [-seed N] [-reps N] [-size small] [-tracing] [-wait]
                      [-events] [-fleet]
                      (-wait follows the job's SSE event stream to its end;
                      -events prints rep progress to stderr meanwhile)
  noiselab status     -server URL -job ID
  noiselab get        -server URL -job ID [-o result.json]
  noiselab cancel     -server URL -job ID

Global flags (before the subcommand):
  -parallel N   worker-pool size for repetitions; every study fans its reps
                over the pool with bit-identical results (0 = REPRO_PARALLEL
                env or GOMAXPROCS, 1 = sequential)
  -v            report study progress (cell k/N) to stderr; 'run' also
                prints the scheduler kernel counters (context switches,
                inline dispatches) and the batch counters (snapshots/run,
                cow-copies/run, batched-reps/run)
  -obs          attach the passive observability recorder to every run and
                print the accumulated counter registry (Prometheus text) to
                stderr on exit; failed reps dump their flight ring to stderr
  -timeline-out F
                record the first run's full scheduling timeline (task spans,
                preemptions, IRQs, barrier waits, noise) and write Chrome
                trace-event JSON to F — open in Perfetto or chrome://tracing.
                Simulation results are byte-identical with or without it.
  -cpuprofile F write a CPU profile of the whole invocation to F
  -memprofile F write a heap profile (after GC) to F on exit

Run 'noiselab <subcommand> -h' for subcommand flags.
`)
}
