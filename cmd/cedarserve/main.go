// Command cedarserve is the persistent experiment-serving daemon: an
// HTTP/JSON front end over the simulator. Clients POST one experiment
// point — machine spec × workload spec × optional fault plan — to
// /v1/run and receive its deterministic outcome artifact; identical
// in-flight submissions coalesce onto one simulation, repeats are served
// byte-identical bytes from the response cache, and a -store directory
// makes that cache durable across daemon restarts.
//
// Usage:
//
//	cedarserve                                  # serve on localhost:8347, memory cache only
//	cedarserve -addr :9000 -store /var/cedar    # durable store, all interfaces
//	cedarserve -store d -store-max-mb 256       # bound the store to 256 MiB (LRU)
//	cedarserve -jobs 4                          # at most 4 concurrent simulations
//
// Submit a point with e.g.:
//
//	curl -d '{"workload":{"kind":"trimat","n":64}}' localhost:8347/v1/run
//
// GET /v1/stats reports request/cache counters; GET /healthz is a
// liveness probe.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"cedar/internal/cliutil"
	"cedar/internal/serve"
	"cedar/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) passed
// in: exit 2 for a bad invocation, 1 for a runtime failure.
func run(args []string, stdout, stderr io.Writer) int {
	handler, addr, code := setup(args, stderr)
	if code != 0 {
		return code
	}
	lg := log.New(stderr, "cedarserve: ", 0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		lg.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "cedarserve: serving on http://%s\n", ln.Addr())
	if err := newServer(handler, readHeaderTimeout).Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Print(err)
		return 1
	}
	return 0
}

// A client gets readHeaderTimeout to finish its request headers, and an
// idle keep-alive connection is closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the daemon's HTTP server: a connection that never
// finishes its request line, or idles after a response, gives its
// goroutine and descriptor back. There is deliberately no WriteTimeout —
// it would start at the end of the headers and cover the simulation, and
// a legitimate one can run for minutes.
func newServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// setup parses and validates the flags and builds the daemon's handler,
// without binding a socket — tests drive the returned handler directly.
// A non-zero code means "exit with it".
func setup(args []string, stderr io.Writer) (http.Handler, string, int) {
	lg := log.New(stderr, "cedarserve: ", 0)
	fs := flag.NewFlagSet("cedarserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:8347", "listen address (host:port)")
		storeDir = fs.String("store", "", "durable response store directory (empty: in-memory cache only)")
		storeMax = fs.Int("store-max-mb", 1024, "store size budget in MiB before LRU eviction (0 = unbounded)")
		jobs     = fs.Int("jobs", 0, "max concurrently running simulations (default GOMAXPROCS; a value you set must be at least 1)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", 2
	}
	if fs.NArg() > 0 {
		lg.Printf("unexpected arguments %v", fs.Args())
		return nil, "", 2
	}
	if *addr == "" {
		lg.Print("-addr must not be empty")
		return nil, "", 2
	}
	if *storeMax < 0 {
		lg.Printf("-store-max-mb must be non-negative, got %d", *storeMax)
		return nil, "", 2
	}
	if *storeDir == "" {
		explicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "store-max-mb" {
				explicit = true
			}
		})
		if explicit {
			lg.Print("-store-max-mb is meaningless without -store")
			return nil, "", 2
		}
	}
	if err := cliutil.CheckJobs(fs, *jobs); err != nil {
		lg.Print(err)
		return nil, "", 2
	}

	cfg := serve.Config{Jobs: *jobs}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, int64(*storeMax)<<20)
		if err != nil {
			lg.Print(err)
			return nil, "", 2
		}
		cfg.Store = st
	}
	return serve.New(cfg).Handler(), *addr, 0
}
