package main

import (
	"net/http"
	"strings"
	"sync"
	"time"
)

// routeStats is one route's handler timings and status counts.
type routeStats struct {
	ms       []float64
	bytes    int64
	statuses map[int]int
}

// timedHandler wraps the dist server's public handler and times every
// request by route, counting statuses and payload bytes. Handlers run on
// the listener's goroutines, so the stats are guarded by mu.
type timedHandler struct {
	next http.Handler

	mu     sync.Mutex
	busy   time.Duration
	routes map[string]*routeStats
}

func newTimedHandler(next http.Handler) *timedHandler {
	return &timedHandler{next: next, routes: map[string]*routeStats{}}
}

// statusWriter records the status code and body size a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := wallNow()
	h.next.ServeHTTP(sw, r)
	d := wallNow().Sub(start)

	route := strings.TrimPrefix(r.URL.Path, "/v1/")
	// Task payloads flow down (the model), update payloads flow up (the
	// compressed delta).
	size := sw.bytes
	if route == "update" {
		size = r.ContentLength
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.busy += d
	rs := h.routes[route]
	if rs == nil {
		rs = &routeStats{statuses: map[int]int{}}
		h.routes[route] = rs
	}
	rs.ms = append(rs.ms, float64(d)/float64(time.Millisecond))
	rs.bytes += size
	rs.statuses[sw.status]++
}

// report sets the dist handler metrics over a run of the given length.
func (h *timedHandler) report(ly layerSet, wall time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	task := h.route("task")
	update := h.route("update")
	for _, rt := range []struct {
		name string
		rs   *routeStats
	}{{"task", task}, {"update", update}} {
		name, rs := rt.name, rt.rs
		p50 := median(rs.ms)
		p99, _ := tailPercentile(rs.ms, 0.99)
		ly["dist."+name+"_ms_p50"] = p50
		ly["dist."+name+"_ms_p99"] = p99
		ly["dist."+name+"_calls"] = float64(len(rs.ms))
		ly["dist."+name+"_bytes"] = float64(rs.bytes)
	}
	ly["dist.conflict_frac"] = frac(float64(update.statuses[http.StatusConflict]), float64(len(update.ms)))
	ly["dist.no_slot_frac"] = frac(float64(task.statuses[http.StatusNoContent]), float64(len(task.ms)))
	ly["dist.server_busy_frac"] = frac(float64(h.busy), float64(wall))
}

func (h *timedHandler) route(name string) *routeStats {
	if rs := h.routes[name]; rs != nil {
		return rs
	}
	return &routeStats{statuses: map[int]int{}}
}
