package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// textContentType is the Prometheus text exposition content type.
const textContentType = "text/plain; version=0.0.4; charset=utf-8"

// Server is a minimal standalone HTTP server exposing one registry at
// /metrics (and the same page at /, so `curl host:port` works too), plus
// the runtime profiling surface at /debug/pprof/ — every binary that
// exposes a -metrics listener gets CPU/heap/goroutine introspection for
// free, with no separate debug port to configure.
type Server struct {
	ln  net.Listener
	srv *http.Server

	once sync.Once
	err  error
}

// Serve starts an HTTP server for the registry on addr ("host:port";
// ":0" picks a free port, read it back with Addr).
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	page := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", textContentType)
		reg.WriteTo(w)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", page)
	mux.HandleFunc("/", page)
	// net/http/pprof registers on http.DefaultServeMux only; mount its
	// handlers explicitly so the profiling surface rides this mux (the
	// more specific /debug/pprof/ pattern wins over the / metrics page).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Safe to call more than once.
func (s *Server) Close() error {
	s.once.Do(func() { s.err = s.srv.Close() })
	return s.err
}
