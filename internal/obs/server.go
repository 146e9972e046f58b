package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Server exposes a registry over HTTP: Prometheus-text /metrics, JSON
// /statusz (whatever the owner's status function returns), /healthz
// (200 "ok" or 503 with the error), and net/http/pprof under
// /debug/pprof. The registry, status, and health hooks are atomic
// pointers, so an owner may install or replace them while scrapes are in
// flight.
type Server struct {
	reg    atomic.Pointer[Registry]
	status atomic.Pointer[func() any]
	health atomic.Pointer[func() error]

	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
}

// NewServer builds an unstarted server with an empty registry.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.reg.Store(NewRegistry())
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	// net/http/pprof self-registers only on http.DefaultServeMux; wire
	// its handlers onto ours explicitly.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Registry returns the currently mounted registry.
func (s *Server) Registry() *Registry { return s.reg.Load() }

// SetRegistry swaps the registry served by /metrics.
func (s *Server) SetRegistry(r *Registry) {
	if r == nil {
		r = NewRegistry()
	}
	s.reg.Store(r)
}

// SetStatus installs the /statusz payload producer. The returned value
// is marshaled as JSON per request; nil uninstalls.
func (s *Server) SetStatus(fn func() any) {
	if fn == nil {
		s.status.Store(nil)
		return
	}
	s.status.Store(&fn)
}

// SetHealth installs the /healthz check: nil error is healthy (200),
// non-nil serves 503 with the error text. Without a hook /healthz is
// always healthy.
func (s *Server) SetHealth(fn func() error) {
	if fn == nil {
		s.health.Store(nil)
		return
	}
	s.health.Store(&fn)
}

// Handler returns the server's mux (tests mount it on httptest).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Load().WritePrometheus(w)
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var payload any
	if fn := s.status.Load(); fn != nil {
		payload = (*fn)()
	}
	if payload == nil {
		payload = map[string]any{"metrics": s.reg.Load().Names()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if fn := s.health.Load(); fn != nil {
		if err := (*fn)(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// Start listens on addr (e.g. "127.0.0.1:9090", ":0" for an ephemeral
// port) and serves in the background until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight requests are abandoned — the
// observability plane has nothing worth draining for.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
