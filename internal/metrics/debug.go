package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler exposing the registry for live
// inspection:
//
//	/debug/fobs         expvar-style JSON snapshot of every transfer
//	/debug/fobs/prom    aggregate counters and the round-trip histogram in
//	                    the Prometheus text exposition format
//	/debug/fobs/trace   sampled series as CSV
//	/debug/fobs/charts  sampled series as ASCII sparkline charts
//	/debug/pprof/...    the standard runtime profiles
//
// Each /debug/fobs request takes a fresh trace sample first, so pointing a
// browser (or curl in a loop) at the endpoint is enough to grow the series
// without configuring a sampler.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/fobs", func(w http.ResponseWriter, req *http.Request) {
		r.Sample()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/fobs/prom", func(w http.ResponseWriter, req *http.Request) {
		r.Sample()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/fobs/trace", func(w http.ResponseWriter, req *http.Request) {
		r.Sample()
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Write([]byte(r.TraceCSV()))
	})
	mux.HandleFunc("/debug/fobs/charts", func(w http.ResponseWriter, req *http.Request) {
		r.Sample()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(r.Charts(48)))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP endpoint; see ServeDebug.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060", or
// ":0" for an ephemeral port) serving reg's Handler. It returns once the
// listener is bound; the server runs until Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: reg.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address, handy with ":0".
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the server down and releases the listener.
func (d *DebugServer) Close() error { return d.srv.Close() }
