package service_test

// The API contract both servers share: a daemon and a fleet coordinator are
// one service.Server with different runners, so each case runs against
// both.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/service"
)

// apiServers returns the frontends under test: a daemon, and a coordinator
// over one daemon backend.
func apiServers(t *testing.T, cfg service.Config) map[string]*httptest.Server {
	t.Helper()
	daemon, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	daemonTS := httptest.NewServer(daemon.Handler())
	coord, err := fleet.New(fleet.Config{Backends: []string{daemonTS.URL}, MaxReps: cfg.MaxReps})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coordTS.Close()
		coord.Close()
		daemonTS.Close()
		daemon.Close()
	})
	return map[string]*httptest.Server{"daemon": daemonTS, "coordinator": coordTS}
}

func TestMalformedSpecs400(t *testing.T) {
	for name, ts := range apiServers(t, service.Config{CacheDir: t.TempDir(), MaxReps: 100}) {
		t.Run(name, func(t *testing.T) { checkMalformedSpecs400(t, ts) })
	}
}

func checkMalformedSpecs400(t *testing.T, ts *httptest.Server) {
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]string{
		"not json":         `{"platform":`,
		"unknown field":    `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"Rm","reps":1,"bogus":1}`,
		"unknown platform": `{"platform":"cray-1","workload":"nbody","model":"omp","strategy":"Rm","reps":1}`,
		"unknown workload": `{"platform":"tiny-test","workload":"linpack","model":"omp","strategy":"Rm","reps":1}`,
		"unknown model":    `{"platform":"tiny-test","workload":"nbody","model":"cuda","strategy":"Rm","reps":1}`,
		"unknown strategy": `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"YOLO","reps":1}`,
		"zero reps":        `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"Rm","reps":0}`,
		"excessive reps":   `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"Rm","reps":101}`,
		"negative scale":   `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"Rm","reps":1,"noise_scale":-2}`,
		"bad size":         `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"Rm","reps":1,"size":"huge"}`,
	}
	for name, body := range cases {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	// And unknown jobs 404.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/timeline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}
