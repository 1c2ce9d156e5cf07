package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// Admin is the operator-facing HTTP surface of a daemon:
//
//	/metrics   Prometheus text exposition (?format=json for the JSON
//	           snapshot CI archives)
//	/healthz   liveness: 200 as long as the process serves HTTP
//	/readyz    readiness: 200 while accepting work, 503 once draining
//	           (the daemon flips it at SIGTERM, before closing the
//	           listener, so load balancers stop routing new sessions
//	           while in-flight ones finish)
//	/statusz   human-readable status page from the daemon's callback,
//	           plus span trees of recent traces when a tracer is set
//	/debug/traces  JSON snapshot of retained traces (recent + slow)
//	/debug/pprof/...  the standard profiling endpoints
//
// Admin is an http.Handler; mount it on a dedicated listener — it
// performs no authentication and pprof can dump heap contents.
type Admin struct {
	reg      *Registry
	statusz  func(io.Writer)
	tracer   atomic.Pointer[Tracer]
	draining atomic.Bool
	mux      *http.ServeMux
}

// NewAdmin builds the admin surface. reg may be nil (metrics render
// empty); statusz may be nil (/statusz reports only drain state).
func NewAdmin(reg *Registry, statusz func(io.Writer)) *Admin {
	a := &Admin{reg: reg, statusz: statusz, mux: http.NewServeMux()}
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	a.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	a.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if a.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	a.mux.HandleFunc("/statusz", a.handleStatusz)
	a.mux.HandleFunc("/debug/traces", a.handleTraces)
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return a
}

// ServeHTTP dispatches to the admin routes.
func (a *Admin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

// SetTracer attaches a tracer: /debug/traces starts serving its
// snapshot and /statusz appends span trees. A nil tracer (or never
// calling this) leaves both rendering empty.
func (a *Admin) SetTracer(t *Tracer) { a.tracer.Store(t) }

// SetDraining flips /readyz: true returns 503 to every probe from now
// on. The daemon calls it the moment shutdown begins.
func (a *Admin) SetDraining(v bool) { a.draining.Store(v) }

// Draining reports the current /readyz state.
func (a *Admin) Draining() bool { return a.draining.Load() }

func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = a.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.reg.WritePrometheus(w)
}

func (a *Admin) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = a.tracer.Load().WriteJSON(w)
}

// statuszTraceLimit bounds the span-tree section of /statusz; the full
// snapshot stays one curl away at /debug/traces.
const statuszTraceLimit = 5

func (a *Admin) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	state := "serving"
	if a.draining.Load() {
		state = "draining"
	}
	fmt.Fprintf(w, "state: %s\n", state)
	if a.statusz != nil {
		a.statusz(w)
	}
	if t := a.tracer.Load(); t != nil {
		traces := t.Snapshot()
		fmt.Fprintf(w, "\n-- traces (%d retained", len(traces))
		if st := t.SlowThreshold(); st > 0 {
			fmt.Fprintf(w, ", slow >= %v", st)
		}
		fmt.Fprint(w, ", full dump at /debug/traces) --\n")
		for i, td := range traces {
			if i == statuszTraceLimit {
				fmt.Fprintf(w, "... and %d more\n", len(traces)-statuszTraceLimit)
				break
			}
			io.WriteString(w, td.Tree())
		}
	}
}

// NewLogger maps a daemon's logging flags to a slog.Logger on stderr:
// level is -log-level's value, json picks JSON lines over text, and
// quiet raises the floor to warn (suppressing the per-stream Info lines)
// unless -log-level was given explicitly on the command line.
func NewLogger(level string, json, quiet bool) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	levelSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "log-level" {
			levelSet = true
		}
	})
	if quiet && !levelSet {
		lv = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: lv}
	if json {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// NewDaemonTracer is a daemon's tracer: recent traces always, and with
// slow > 0 every operation at or over slow retained and its span tree
// logged as a warning.
func NewDaemonTracer(slow time.Duration, logger *slog.Logger) *Tracer {
	return NewTracer(TracerConfig{
		SlowThreshold: slow,
		OnSlow: func(root *Span) {
			logger.Warn("slow operation", "name", root.Name(),
				"dur", root.Duration().Round(time.Microsecond).String(),
				"trace", root.Trace().String(), "tree", "\n"+root.TraceData().Tree())
		},
	})
}

// Serve listens on addr (a daemon's -admin; empty: no endpoint) and
// serves the admin surface there until stop is called. A serve failure
// after the listen is logged.
func (a *Admin) Serve(addr string, logger *slog.Logger) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: a}
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("admin server failed", "err", err)
		}
	}()
	logger.Info("admin endpoint up", "addr", l.Addr().String())
	return func() { _ = srv.Close() }, nil
}

// DrainOnSignal starts a daemon's drain at the first SIGINT or SIGTERM:
// the signal is logged, /readyz turns 503 and l is closed, which ends the
// daemon's accept loop.
func (a *Admin) DrainOnSignal(l io.Closer, logger *slog.Logger) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("draining sessions", "signal", s.String())
		a.SetDraining(true)
		_ = l.Close()
	}()
}
