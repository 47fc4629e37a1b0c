package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsServer is the HTTP side-listener serving a registry: /metrics
// (Prometheus text), /debug/slowlog (the retained slow-query entries as
// text), and the Go runtime's live profiles under /debug/pprof/.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ListenAndServe starts a metrics server for r on addr (":0" picks a free
// port) in the background; Close stops it. The pprof handlers are mounted
// on the server's own mux, not http.DefaultServeMux.
func ListenAndServe(addr string, r *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		for name, l := range r.SlowLogs() {
			fmt.Fprintf(w, "# %s: %d recorded, threshold %v\n", name, l.Count(), l.Threshold())
			for _, e := range l.Entries() {
				fmt.Fprintf(w, "%s total=%v u=%d v=%d", e.When.Format(time.RFC3339Nano), e.Total, e.U, e.V)
				for st := Stage(0); st < NumStages; st++ {
					if d := e.Stages[st]; d > 0 {
						fmt.Fprintf(w, " %s=%v", st, d)
					}
				}
				fmt.Fprintln(w)
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index) // heap, goroutine, block, ... by name
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &MetricsServer{ln: ln, srv: &http.Server{Handler: mux}}
	go ms.srv.Serve(ln)
	return ms, nil
}

// Addr is the bound listen address.
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close stops the listener and drops in-flight scrapes.
func (m *MetricsServer) Close() error { return m.srv.Close() }
