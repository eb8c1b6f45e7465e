package fleet

import (
	"encoding/json"
	"net/http"
)

// Handler returns the coordinator's HTTP handler: the service API (see
// internal/service/http.go) plus GET /v1/ring.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.Server.Handler())
	mux.HandleFunc("GET /v1/ring", c.handleRing)
	return mux
}

// handleRing reports a key's placement and failover order — an operator's
// window into where a spec hash lives.
func (c *Coordinator) handleRing(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	resp := map[string]any{"members": c.run.ring.Members()}
	if key != "" {
		resp["key"] = key
		resp["owner"] = c.run.ring.Pick(key)
		resp["failover"] = c.run.ring.Seq(key)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
