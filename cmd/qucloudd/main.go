// Command qucloudd runs the QuCloud compilation service: a
// long-running daemon that accepts QASM jobs over HTTP, batches them
// with the EPST scheduler, compiles them with the QuCloud pipeline,
// and executes them on the noisy simulator.
//
// Serve (default mode):
//
//	qucloudd -addr :8080 -backends ibmq16,tokyo -eps 0.15
//
// Every admitted job is routed across the registered chips by the
// fleet dispatcher (-fleet-policy speed|fidelity|fairness|balanced);
// a backends entry may be replicated with "name*N" (e.g. "london*4")
// to register N identically-calibrated copies. The service's metrics
// are served as JSON on /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/fleet"
	"repro/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("qucloudd: ")
	if err := runServe(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// parseBackends resolves a comma-separated device list (e.g.
// "ibmq16,tokyo") into arch devices with the given calibration seed.
// An entry may carry a "*N" replication suffix ("london*4" registers
// london-1 … london-4 with per-copy calibration seeds) so a
// homogeneous fleet doesn't need N spellings. Unknown chip names error
// with the valid list.
func parseBackends(spec string, seed int64) ([]*arch.Device, error) {
	var out []*arch.Device
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, count := entry, 1
		if base, n, ok := strings.Cut(entry, "*"); ok {
			c, err := strconv.Atoi(strings.TrimSpace(n))
			if err != nil || c < 1 {
				return nil, fmt.Errorf("bad replication %q (want name*N with N >= 1)", entry)
			}
			name, count = strings.TrimSpace(base), c
		}
		for i := 0; i < count; i++ {
			d, err := arch.ByName(name, seed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("unknown backend %q (valid: %s)",
					name, strings.Join(arch.StandardDevices(), ", "))
			}
			if count > 1 {
				d.Name = fmt.Sprintf("%s-%d", d.Name, i+1)
			}
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends in %q (try %s)", spec, strings.Join(arch.StandardDevices(), ","))
	}
	return out, nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("qucloudd", flag.ExitOnError)
	cfg := service.DefaultConfig()
	fs.StringVar(&cfg.FleetPolicy, "fleet-policy", cfg.FleetPolicy, "fleet allocation policy: "+strings.Join(fleet.Names(), ", "))
	fs.DurationVar(&cfg.ExecDwell, "exec-dwell", cfg.ExecDwell, "emulated per-batch hardware occupancy (shot time); 0 disables")
	fs.Float64Var(&cfg.Epsilon, "eps", cfg.Epsilon, "EPST violation threshold")
	fs.IntVar(&cfg.QueueSize, "queue", cfg.QueueSize, "bounded queue capacity (429 when full)")
	fs.IntVar(&cfg.Trials, "trials", cfg.Trials, "Monte-Carlo trials per batch")
	fs.IntVar(&cfg.Attempts, "attempts", cfg.Attempts, "compiler best-of-N attempts")
	fs.IntVar(&cfg.Lookahead, "lookahead", cfg.Lookahead, "scheduler lookahead N")
	fs.IntVar(&cfg.MaxColocate, "max-colocate", cfg.MaxColocate, "max programs per batch")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed base")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", cfg.RequestTimeout, "per-request HTTP timeout")
	fs.DurationVar(&cfg.BatchTimeout, "batch-timeout", cfg.BatchTimeout, "per-batch compile+simulate deadline (negative disables)")
	fs.IntVar(&cfg.BreakerThreshold, "breaker-threshold", cfg.BreakerThreshold, "consecutive batch failures before a backend's breaker opens (negative disables)")
	fs.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", cfg.BreakerCooldown, "open-breaker cooldown before a half-open probe")
	fs.IntVar(&cfg.MaxJobHistory, "history", cfg.MaxJobHistory, "terminal job records retained per service (negative keeps all)")
	fs.IntVar(&cfg.CacheSize, "cache-size", cfg.CacheSize, "compile-cache entries (0 uses the default, negative disables caching)")
	fs.StringVar(&cfg.DataDir, "data-dir", cfg.DataDir, "directory for the write-ahead job log (queued jobs survive restart); empty disables")
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		backends     = fs.String("backends", "ibmq16,tokyo", "comma-separated backend chips ("+strings.Join(arch.StandardDevices(), ",")+")")
		calSeed      = fs.Int64("cal-seed", 0, "calibration seed for the backends")
		drainTimeout = fs.Duration("drain-timeout", 60*time.Second, "max time to drain the queue on SIGINT/SIGTERM")
		crosstalk    = fs.Bool("crosstalk", false, "install a synthetic crosstalk matrix (generator ground truth) on every backend (CDAP placement and EPST admission become pair-aware)")
		tenantsFile  = fs.String("tenants", "", "JSON file with the tenant key table ([{\"id\":...,\"key\":...,\"weight\":...}]); empty serves a single open tenant")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	devices, err := parseBackends(*backends, *calSeed)
	if err != nil {
		return err
	}
	if *crosstalk {
		for i, d := range devices {
			d.Crosstalk = arch.GenerateCrosstalk(d, *calSeed+int64(i)*131)
			if err := d.Validate(); err != nil {
				return fmt.Errorf("crosstalk matrix for %s: %w", d.Name, err)
			}
		}
	}
	if *tenantsFile != "" {
		tenants, err := service.LoadTenants(*tenantsFile)
		if err != nil {
			return err
		}
		cfg.Tenants = tenants
	}
	svc, err := service.New(devices, cfg)
	if err != nil {
		return err
	}
	svc.Start()

	server := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving %d backends on %s (fleet=%s eps=%.3f queue=%d)",
			len(devices), *addr, cfg.FleetPolicy, cfg.Epsilon, cfg.QueueSize)
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received: draining queue (up to %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Printf("forced shutdown: %v", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := server.Shutdown(shutCtx); err != nil {
		return err
	}
	snap := svc.MetricsSnapshot()
	log.Printf("drained: %d completed, %d failed, %d batches (TRF %.2f)",
		snap.Jobs.Completed, snap.Jobs.Failed, snap.Batches.Executed, snap.Batches.TRF)
	return nil
}
