package main

// Client mode: drive a running noiselabd over HTTP. submit posts an
// experiment spec (optionally waiting for the result), status polls one
// job, get fetches the stored result payload, cancel aborts a job.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

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

// apiGet fetches path and decodes the JSON body into v (when non-nil),
// returning the status code.
func apiGet(base, path string, v any) (int, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, nil
}

// errBody extracts the error message of a non-2xx JSON response.
func errBody(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(resp.Body)
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
}

func cmdSubmit(args []string) error {
	c := newCommon("submit")
	server := serverFlag(c.fs)
	reps := c.fs.Int("reps", 50, "repetitions")
	size := c.fs.String("size", "", "problem size: default or small")
	tracing := c.fs.Bool("tracing", false, "record per-rep traces in the result")
	wait := c.fs.Bool("wait", false, "poll until the job finishes and print the summary")
	fleetMode := c.fs.Bool("fleet", false,
		"target a noisefleet coordinator (default server becomes "+fleetDefault+"); prints per-shard detail with -wait")
	events := c.fs.Bool("events", false,
		"with -wait: follow the job's SSE event stream (live rep progress on stderr) instead of polling")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	base := resolveServer(c.fs, *server, *fleetMode)
	spec := service.JobSpec{
		Platform: *c.platform, Workload: *c.workload, Model: *c.model,
		Strategy: *c.strategy, Seed: *c.seed, Reps: *reps, Size: *size,
		Tracing: *tracing,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return errBody(resp)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("job %s %s cached=%v spec=%s\n", st.ID, st.State, st.Cached, st.SpecHash[:12])
	if !*wait {
		return nil
	}
	if *events {
		if err := followEvents(base, st.ID); err != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v; falling back to polling\n", err)
		}
	}
	st, err = pollJob(base, st.ID)
	if err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if *fleetMode {
		printShards(base, st.ID)
	}
	return fetchAndPrint(base, st.ID, "")
}

// followEvents streams a job's SSE events, echoing progress to stderr, and
// returns once a terminal state event arrives (or the stream breaks — the
// caller's status poll then settles the final state).
func followEvents(server, id string) error {
	resp, err := http.Get(server + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errBody(resp)
	}
	var event, data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			switch event {
			case "progress":
				var p struct{ Done, Total int }
				if json.Unmarshal([]byte(data), &p) == nil {
					fmt.Fprintf(os.Stderr, "\rreps %d/%d", p.Done, p.Total)
				}
			case "state":
				var s struct {
					State service.JobState `json:"state"`
				}
				if json.Unmarshal([]byte(data), &s) == nil && s.State.Terminal() {
					fmt.Fprintf(os.Stderr, "\rjob %s %s\n", id, s.State)
					return nil
				}
			}
			event, data = "", ""
		}
	}
	return sc.Err()
}

// printShards reports a fleet job's per-sub-job placement (best-effort:
// non-coordinator servers simply return no sub_jobs).
func printShards(server, id string) {
	var st service.JobStatus
	if code, err := apiGet(server, "/v1/jobs/"+id, &st); err != nil || code != http.StatusOK {
		return
	}
	for _, s := range st.SubJobs {
		fmt.Printf("  shard offset=%d reps=%d node=%s job=%s cached=%v retries=%d\n",
			s.Offset, s.Reps, s.Node, s.JobID, s.Cached, s.Retries)
	}
}

// pollJob polls until the job reaches a terminal state.
func pollJob(server, id string) (service.JobStatus, error) {
	for {
		var st service.JobStatus
		code, err := apiGet(server, "/v1/jobs/"+id, &st)
		if err != nil {
			return st, err
		}
		if code != http.StatusOK {
			return st, fmt.Errorf("status %s: HTTP %d", id, code)
		}
		if st.State.Terminal() {
			return st, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server := serverFlag(fs)
	job := fs.String("job", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *job == "" {
		return fmt.Errorf("-job is required")
	}
	var st service.JobStatus
	code, err := apiGet(*server, "/v1/jobs/"+*job, &st)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("HTTP %d", code)
	}
	fmt.Printf("job %s %s cached=%v spec=%s", st.ID, st.State, st.Cached, st.SpecHash[:12])
	if st.Error != "" {
		fmt.Printf(" error=%q", st.Error)
	}
	fmt.Println()
	return nil
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	server := serverFlag(fs)
	job := fs.String("job", "", "job ID (required)")
	out := fs.String("o", "", "write the raw result JSON to this file instead of summarizing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *job == "" {
		return fmt.Errorf("-job is required")
	}
	return fetchAndPrint(*server, *job, *out)
}

// fetchAndPrint downloads a result payload and either saves it raw or
// prints the summary line.
func fetchAndPrint(server, id, outPath string) error {
	resp, err := http.Get(server + "/v1/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errBody(resp)
	}
	data, err := io.ReadAll(resp.Body)
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
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	server := serverFlag(fs)
	job := fs.String("job", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *job == "" {
		return fmt.Errorf("-job is required")
	}
	req, err := http.NewRequest(http.MethodDelete, *server+"/v1/jobs/"+*job, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errBody(resp)
	}
	var body struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	fmt.Printf("job %s %s\n", body.ID, body.State)
	return nil
}
