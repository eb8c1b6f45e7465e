package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/service"
)

// clients is the closed-loop client count: callers of `noiselab submit
// -wait` wait for each result before sending the next, and the host the
// benchmark was sized on has two CPUs.
const clients = 2

// serveEnv is an in-process noiselabd (daemon-mix), or a fleet coordinator
// over two in-process noiselabd backends (fleet-mix), on loopback HTTP.
type serveEnv struct {
	c        *config
	fleet    bool
	dir      string
	servers  []*service.Server
	backends []*httptest.Server
	coord    *fleet.Coordinator
	front    *httptest.Server // the server the clients talk to
	hc       *http.Client     // the clients'
	api      *fleet.Backend   // the clients' job API on front
	coordHC  *http.Client     // the coordinator's, to its backends
	ops      []*op            // the last pass's
	before   serveCounts      // the counters when the last traced pass began
}

func setupDaemon(ctx context.Context, c *config) (env, error) { return setupServing(ctx, c, false) }
func setupFleet(ctx context.Context, c *config) (env, error)  { return setupServing(ctx, c, true) }

func setupServing(ctx context.Context, c *config, withFleet bool) (env, error) {
	dir, err := os.MkdirTemp(c.state, "perfbench-cache-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{c: c, fleet: withFleet, dir: dir,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}}
	// A fleet's backends each get one of the host's CPUs, as each would own
	// its machine in a real fleet; the lone daemon gets the executor
	// default.
	n, parallelism := 1, 0
	if withFleet {
		n, parallelism = 2, 1
	}
	for i := 0; i < n; i++ {
		srv, err := service.New(service.Config{CacheDir: filepath.Join(dir, strconv.Itoa(i)), Parallelism: parallelism})
		if err != nil {
			e.close()
			return nil, err
		}
		e.servers = append(e.servers, srv)
		e.backends = append(e.backends, httptest.NewServer(srv.Handler()))
	}
	e.front = e.backends[0]
	if withFleet {
		cfg := fleet.Config{}
		for _, b := range e.backends {
			cfg.Backends = append(cfg.Backends, b.URL)
		}
		e.coordHC = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * clients}}
		cfg.Client = e.coordHC
		coord, err := fleet.New(cfg)
		if err != nil {
			e.close()
			return nil, err
		}
		e.coord = coord
		e.front = httptest.NewServer(coord.Handler())
	}
	e.api = &fleet.Backend{Name: e.front.URL, Client: e.hc}
	if _, err := e.get(ctx, "/healthz"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm serves one job outside the clients' spec space.
func (e *serveEnv) warm(ctx context.Context) error {
	spec := service.JobSpec{
		Platform: machine.Intel9700KF, Workload: "babelstream", Size: "small", Model: "omp", Strategy: "Rm",
		Seed: experiment.SeedFor(e.c.seed, "warm-up"), Reps: 8,
	}
	return e.request(ctx, "miss", spec, "warm-up", 0, nil).err
}

func (e *serveEnv) close() {
	if e.coord != nil {
		e.front.Close()
		e.coord.Close()
		e.coordHC.CloseIdleConnections()
	}
	for i := range e.backends {
		e.backends[i].Close()
		e.servers[i].Close()
	}
	e.hc.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// generator makes one client's request stream from the workload seed: 60%
// new single-node jobs, 30% resubmits of a spec whose result the client
// already received (chosen uniformly from all of them), 10% new 2-node
// cluster jobs. New specs carry seeds unique to (seed, client, job), so the
// clients never share a spec.
type generator struct {
	rng      *rand.Rand
	seed     uint64
	client   int
	n        int
	received []service.JobSpec
}

func newGenerator(seed uint64, client int) *generator {
	return &generator{rng: rand.New(rand.NewPCG(seed, uint64(client))), seed: seed, client: client}
}

func (g *generator) newSeed() uint64 {
	g.n++
	return experiment.SeedFor(g.seed, "client", strconv.Itoa(g.client), "job", strconv.Itoa(g.n))
}

func (g *generator) next() (class string, spec service.JobSpec) {
	r := g.rng.Float64()
	switch {
	case r < 0.10:
		return "cluster", service.JobSpec{Seed: g.newSeed(), Reps: 4, Cluster: &cluster.Spec{
			Nodes: 2, Straggler: 1, StragglerScale: 4, Policy: "round-robin",
			Tenants: 1, JobsPerTenant: 2, Width: 2, WorkerMs: 1, ArrivalMs: 1,
		}}
	case r < 0.40 && len(g.received) > 0:
		return "hit", g.received[g.rng.IntN(len(g.received))]
	}
	model := "omp"
	if g.n%2 == 1 {
		model = "sycl"
	}
	return "miss", service.JobSpec{
		Platform: machine.Intel9700KF, Workload: "babelstream", Size: "small",
		Model: model, Strategy: "Rm", Seed: g.newSeed(), Reps: 8,
	}
}

func (e *serveEnv) pass(ctx context.Context, stop stopRule, tr *tracer) ([]*op, error) {
	if tr != nil {
		var err error
		if e.before, err = e.counts(ctx); err != nil {
			return nil, err
		}
	}
	var (
		mu  sync.Mutex
		ops []*op
		wg  sync.WaitGroup
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGenerator(e.c.seed, cl)
			var mine []*op
			for i := 0; stop.more(i); i++ {
				class, spec := g.next()
				o := e.request(ctx, class, spec, fmt.Sprintf("c%d-%d", cl, i), cl, tr)
				if o.err == nil && class == "miss" {
					g.received = append(g.received, spec)
				}
				mine = append(mine, o)
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	e.ops = ops
	return ops, nil
}

// request runs one closed-loop request: POST /v1/jobs, follow /events to a
// terminal state unless the submit answered from a cache, GET /result.
// Traced, it records the client-side stages as children of one request
// span.
func (e *serveEnv) request(ctx context.Context, class string, spec service.JobSpec, req string, lane int, tr *tracer) *op {
	o := &op{class: class, start: time.Now(), val: spec}
	root := tr.id()
	st, err := e.api.Submit(ctx, spec)
	submitted := time.Now()
	var running, waited time.Time
	if err == nil && !st.State.Terminal() {
		st.State, running, err = e.follow(ctx, st.ID)
		waited = time.Now()
	}
	fetchStart := time.Now()
	if err == nil && st.State != service.StateDone {
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if err == nil {
		o.out, err = e.api.Result(ctx, st.ID)
	}
	o.end, o.err = time.Now(), err
	if tr == nil {
		return o
	}
	layer := "service"
	if e.fleet {
		layer = "fleet"
	}
	child := func(name string, start, end time.Time) {
		tr.add(span{parent: root, name: name, cat: layer, req: req, lane: lane, start: start, end: end})
	}
	child("submit", o.start, submitted)
	if !waited.IsZero() {
		child("wait", submitted, waited)
		if !running.IsZero() {
			child("queue_wait", submitted, running)
			child("execute", running, waited)
		}
	}
	child("fetch", fetchStart, o.end)
	tr.add(span{id: root, name: "request", cat: class, req: req, lane: lane, start: o.start, end: o.end})
	return o
}

// follow reads a job's server-sent events to the terminal state, returning
// it and when the "running" state event was read.
func (e *serveEnv) follow(ctx context.Context, id string) (service.JobState, time.Time, error) {
	var running time.Time
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.front.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", running, err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return "", running, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", running, fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	var typ string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && typ == "state":
			var s struct {
				State service.JobState `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &s); err != nil {
				return "", running, fmt.Errorf("events of %s: %w", id, err)
			}
			if s.State == service.StateRunning && running.IsZero() {
				running = time.Now()
			}
			if s.State.Terminal() {
				_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
				return s.State, running, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", running, err
	}
	return "", running, fmt.Errorf("events of %s ended without a terminal state", id)
}

func (e *serveEnv) get(ctx context.Context, path string) ([]byte, error) {
	return httpGet(ctx, e.hc, e.front.URL+path)
}

func httpGet(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// serveCounts are the cumulative counters of the servers: each daemon's
// kernel registry (/metrics?format=json) and service snapshot
// (Server.Metrics), and the coordinator's /metrics.
type serveCounts struct {
	kernel              map[string]uint64
	cache               rescache.Stats
	submitted, rejected uint64
	fleet               map[string]float64
}

func (e *serveEnv) counts(ctx context.Context) (serveCounts, error) {
	c := serveCounts{kernel: map[string]uint64{}, fleet: map[string]float64{}}
	for i, srv := range e.servers {
		data, err := httpGet(ctx, e.hc, e.backends[i].URL+"/metrics?format=json")
		if err != nil {
			return c, err
		}
		var doc struct {
			Kernel struct {
				Counters map[string]uint64 `json:"counters"`
			} `json:"kernel"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return c, fmt.Errorf("/metrics?format=json: %w", err)
		}
		for k, v := range doc.Kernel.Counters {
			c.kernel[k] += v
		}
		s := srv.Metrics()
		c.submitted += s.Submitted
		c.rejected += s.Rejected
		c.cache.MemHits += s.Cache.MemHits
		c.cache.DiskHits += s.Cache.DiskHits
		c.cache.FlightHits += s.Cache.FlightHits
		c.cache.Misses += s.Cache.Misses
		c.cache.Computes += s.Cache.Computes
	}
	if !e.fleet {
		return c, nil
	}
	data, err := e.get(ctx, "/metrics")
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if x, err := strconv.ParseFloat(f[1], 64); err == nil {
			c.fleet[f[0]] = x
		}
	}
	return c, nil
}

// layers reads the counters again and reports what the pass added to them,
// so the set-up's warm-up request is not counted.
func (e *serveEnv) layers(ctx context.Context, m map[string]float64, p passStats, tr *tracer) error {
	after, err := e.counts(ctx)
	if err != nil {
		return err
	}
	b := e.before
	kernel := map[string]uint64{}
	for k, v := range after.kernel {
		kernel[k] = v - b.kernel[k]
	}
	kernelLayers(m, kernel, p)

	jobs := float64(len(e.ops))
	cache := rescache.Stats{
		MemHits:    after.cache.MemHits - b.cache.MemHits,
		DiskHits:   after.cache.DiskHits - b.cache.DiskHits,
		FlightHits: after.cache.FlightHits - b.cache.FlightHits,
		Misses:     after.cache.Misses - b.cache.Misses,
		Computes:   after.cache.Computes - b.cache.Computes,
	}
	m["rescache.hit_ratio"] = cache.HitRatio()
	m["rescache.mem_hits"] = float64(cache.MemHits) / jobs
	m["rescache.disk_hits"] = float64(cache.DiskHits) / jobs
	m["rescache.flight_hits"] = float64(cache.FlightHits) / jobs
	m["rescache.computes_per_job"] = float64(cache.Computes) / jobs
	m["rescache.hit_ms_p50"] = tr.p50("request", "hit")
	if submitted := after.submitted - b.submitted; submitted > 0 {
		m["service.rejected_ratio"] = float64(after.rejected-b.rejected) / float64(submitted)
	}
	if e.fleet {
		f := func(name string) float64 { return after.fleet[name] - b.fleet[name] }
		m["fleet.subjobs_per_job"] = f("noisefleet_subjobs_total") / jobs
		m["fleet.retries_per_job"] = f("noisefleet_subjob_retries_total") / jobs
		if subs := f("noisefleet_subjobs_total"); subs > 0 {
			m["fleet.shard_hit_ratio"] = f("noisefleet_subjob_cache_hits_total") / subs
		}
		m["fleet.merged_hit_ratio"] = f("noisefleet_merged_cache_hits_total") / jobs
		m["fleet.submit_ms_p50"] = tr.p50("submit", "fleet")
		m["fleet.wait_ms_p50"] = tr.p50("wait", "fleet")
		m["fleet.fetch_ms_p50"] = tr.p50("fetch", "fleet")
	} else {
		m["service.submit_ms_p50"] = tr.p50("submit", "service")
		m["service.queue_wait_ms_p50"] = tr.p50("queue_wait", "service")
		m["service.execute_ms_p50"] = tr.p50("execute", "service")
		m["service.fetch_ms_p50"] = tr.p50("fetch", "service")
	}
	m["cluster.job_ms_p50"] = tr.p50("request", "cluster")
	return e.clusterLayers(ctx, m)
}

// clusterLayers runs the pass's cluster specs again with a kernel registry
// attached, since the daemon's registry mixes them with single-node runs.
func (e *serveEnv) clusterLayers(ctx context.Context, m map[string]float64) error {
	reg := obs.NewRegistry()
	exec := experiment.Executor{Obs: &experiment.ObsOptions{Reg: reg}}
	for _, o := range e.ops {
		if o.class != "cluster" {
			continue
		}
		spec := o.val.(service.JobSpec)
		if _, err := exec.ClusterSeries(ctx, *spec.Cluster, spec.Seed, spec.Reps); err != nil {
			return err
		}
	}
	ctr, err := counters(reg)
	if err != nil {
		return err
	}
	if runs := ctr["repro_runs_total"]; runs > 0 {
		m["cluster.steps_per_run"] = float64(ctr["repro_sim_steps_total"]) / float64(runs)
	}
	return nil
}

// verifyServing checks every result byte for byte against service's own
// encoder over a direct executor run of the same spec.
func verifyServing(ctx context.Context, c *config, ops []*op, chk *checker) error {
	want := map[string][]byte{}
	for i, o := range ops {
		if o.err != nil {
			chk.record(false, "request %d (%s): %v", i, o.class, o.err)
			continue
		}
		spec := o.val.(service.JobSpec)
		hash, err := service.SpecHash(&spec)
		if err != nil {
			return err
		}
		w, ok := want[hash]
		if !ok {
			if w, err = directResult(ctx, hash, spec); err != nil {
				return err
			}
			want[hash] = w
		}
		chk.record(bytes.Equal(tampered(c, o.out), w),
			"request %d (%s): result differs from a direct run of its spec", i, o.class)
	}
	return nil
}

func directResult(ctx context.Context, hash string, spec service.JobSpec) ([]byte, error) {
	var exec experiment.Executor
	if spec.Cluster != nil {
		res, err := exec.ClusterSeries(ctx, *spec.Cluster, spec.Seed, spec.Reps)
		if err != nil {
			return nil, err
		}
		return service.BuildClusterResult(hash, spec, res)
	}
	es, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	times, traces, err := exec.Series(ctx, es, spec.Reps)
	if err != nil {
		return nil, err
	}
	return service.BuildResult(hash, spec, times, traces)
}
