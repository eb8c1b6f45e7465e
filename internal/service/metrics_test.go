package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsDeclareEveryFamily scrapes /metrics after a job has run and
// requires a # HELP and a # TYPE line for every family that has a sample.
// Histogram and summary samples (_bucket, _sum, _count) belong to their
// base family.
func TestMetricsDeclareEveryFamily(t *testing.T) {
	_, ts, w := newTestServer(t, Config{})
	st := waitTerminal(t, ts, w, submit(t, ts, tinySpec(3, 2), http.StatusAccepted, http.StatusOK).ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	help := map[string]bool{}
	typ := map[string]string{}
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		switch f := strings.Fields(line); {
		case len(f) >= 4 && f[0] == "#" && f[1] == "HELP":
			help[f[2]] = true
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			typ[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line %q", line)
		default:
			samples = append(samples, line)
		}
	}
	if len(samples) == 0 {
		t.Fatalf("/metrics has no samples:\n%s", body)
	}
	for _, s := range samples {
		name := s[:strings.IndexAny(s, "{ ")]
		fam := name
		if _, ok := typ[fam]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(name, suffix); cut &&
					(typ[base] == "histogram" || typ[base] == "summary") {
					fam = base
				}
			}
		}
		if typ[fam] == "" {
			t.Errorf("sample %q: family %s has no # TYPE", s, fam)
		}
		if !help[fam] {
			t.Errorf("sample %q: family %s has no # HELP", s, fam)
		}
	}
}
