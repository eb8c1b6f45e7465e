package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cpusched"
	"repro/internal/sim"
)

// The text format mirrors the paper's Figure 3:
//
//	# platform=intel-9700kf workload=nbody model=omp strategy=Rm seed=7 exec=0.450971154
//	005  irq_noise      local_timer:236   255.045740274    310 ns
//	010  softirq_noise  RCU:9             255.045742404    140 ns
//	013  thread_noise   kworker/13:1      256.188747948   3760 ns
//
// Start times are seconds with nanosecond resolution; durations are integer
// nanoseconds.

// WriteText renders the trace in the Figure-3 text format.
func WriteText(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	_, err := fmt.Fprintf(bw, "# platform=%s workload=%s model=%s strategy=%s seed=%d exec=%.9f\n",
		tr.Platform, tr.Workload, tr.Model, tr.Strategy, tr.Seed, tr.ExecTime.Seconds())
	if err != nil {
		return err
	}
	for _, e := range tr.Events {
		_, err := fmt.Fprintf(bw, "%03d  %-13s  %-20s  %.9f  %6d ns\n",
			e.CPU, e.Class, e.Source, e.Start.Seconds(), int64(e.Duration))
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Text renders the trace as a string in the Figure-3 format.
func Text(tr *Trace) string {
	var b strings.Builder
	if err := WriteText(&b, tr); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

func parseClass(s string) (cpusched.NoiseClass, error) {
	switch s {
	case "irq_noise":
		return cpusched.ClassIRQ, nil
	case "softirq_noise":
		return cpusched.ClassSoftIRQ, nil
	case "thread_noise":
		return cpusched.ClassThread, nil
	default:
		return 0, fmt.Errorf("trace: unknown event class %q", s)
	}
}

// ReadText parses a trace in the Figure-3 text format.
func ReadText(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !utf8.ValidString(line) {
			// The tracer only emits ASCII labels; rejecting invalid UTF-8
			// keeps every accepted trace representable in the JSON codec,
			// which would otherwise mangle such bytes into U+FFFD.
			return nil, fmt.Errorf("trace: line %d: invalid UTF-8", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if err := parseHeader(line, tr); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 6 || fields[5] != "ns" {
			return nil, fmt.Errorf("trace: line %d: malformed event %q", lineNo, line)
		}
		cpu, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad cpu: %w", lineNo, err)
		}
		class, err := parseClass(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		startSec, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad start: %w", lineNo, err)
		}
		durNs, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad duration: %w", lineNo, err)
		}
		tr.Events = append(tr.Events, Event{
			CPU:      cpu,
			Class:    class,
			Source:   fields[2],
			Start:    sim.Time(startSec*1e9 + 0.5),
			Duration: sim.Time(durNs),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

func parseHeader(line string, tr *Trace) error {
	for _, kv := range strings.Fields(strings.TrimPrefix(line, "#")) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad header field %q", kv)
		}
		switch k {
		case "platform":
			tr.Platform = v
		case "workload":
			tr.Workload = v
		case "model":
			tr.Model = v
		case "strategy":
			tr.Strategy = v
		case "seed":
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed: %w", err)
			}
			tr.Seed = seed
		case "exec":
			sec, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad exec: %w", err)
			}
			tr.ExecTime = sim.Time(sec*1e9 + 0.5)
		default:
			return fmt.Errorf("unknown header field %q", k)
		}
	}
	return nil
}
