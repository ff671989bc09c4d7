// Command service runs the simulation-as-a-service daemon: a multi-tenant
// HTTP job API over the campaign runner, sharing one listener with the
// observability surface (SSE progress, Prometheus metrics, health probes).
//
// Clients authenticate with per-tenant bearer tokens, POST campaign
// submissions, watch progress on /events, and fetch merged results; repeat
// submissions whose job keys the result store already holds simulate
// nothing. SIGTERM/SIGINT drains gracefully: admission closes, the in-flight
// campaign finishes, outstanding fabric leases resolve, then the process
// exits 0.
//
// Examples:
//
//	service -addr :8080 -token dev-token -results results/
//	service -addr :8080 -tenants tenants.json -results results/ -corpus corpus/
//	service -addr :8080 -token dev-token -fabric :9090 -results results/
//
// tenants.json is a JSON array of tenant declarations:
//
//	[{"name": "alice", "token": "s3cret", "max_queued_jobs": 64,
//	  "max_instructions": 100000000}]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"morrigan"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address for the job API and observability endpoints")
		tenants  = flag.String("tenants", "", "JSON file declaring tenants (array of {name, token, max_queued_jobs, max_instructions})")
		token    = flag.String("token", "", "convenience single-tenant mode: one tenant 'default' with this token and a 4096-job quota")
		results  = flag.String("results", "", "durable result store directory: repeat submissions are served without simulating")
		corpus   = flag.String("corpus", "", "trace corpus directory: feed each campaign's simulations from materialised containers of its warmup+measure (built on first use)")
		fabric   = flag.String("fabric", "", "serve a fabric coordinator on this address and delegate jobs to workers")
		jobs     = flag.Int("jobs", 0, "concurrent simulations per campaign (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "max queued campaigns across all tenants (0 = 64)")
		drainFor = flag.Duration("drain-timeout", 2*time.Minute, "how long a SIGTERM waits for the in-flight campaign before forcing exit")
		verbose  = flag.Bool("v", false, "log admissions and completions")
	)
	flag.Parse()

	tcs, err := loadTenants(*tenants, *token)
	if err != nil {
		fatal("%v", err)
	}

	obsSrv := morrigan.NewObservabilityServer()
	opt := morrigan.JobServiceOptions{
		Tenants:            tcs,
		MaxQueuedCampaigns: *queue,
		Workers:            *jobs,
		Cache:              morrigan.NewCampaignResultCache(),
		Observer:           obsSrv,
	}
	if *verbose {
		opt.Log = os.Stderr
	}
	if *results != "" {
		rs, err := morrigan.OpenResultStore(*results)
		if err != nil {
			fatal("results: %v", err)
		}
		if rs.Len() > 0 {
			fmt.Fprintf(os.Stderr, "service: result store holds %d reusable results\n", rs.Len())
		}
		opt.Store = rs
	}
	var cs *morrigan.CorpusStore
	if *corpus != "" {
		cs, err = morrigan.OpenCorpusStore(morrigan.CorpusOptions{Dir: *corpus})
		if err != nil {
			fatal("%v", err)
		}
		defer cs.Close()
		opt.Corpus = cs
	}
	var coord *morrigan.FabricCoordinator
	if *fabric != "" {
		copt := morrigan.FabricCoordinatorOptions{Corpus: cs}
		if *verbose {
			copt.Log = os.Stderr
		}
		coord = morrigan.NewFabricCoordinator(copt)
		baddr, err := coord.Start(*fabric)
		if err != nil {
			fatal("fabric: %v", err)
		}
		fmt.Fprintf(os.Stderr, "service: fabric coordinator on http://%s — start workers with: fabric work -coordinator http://%s\n", baddr, baddr)
		opt.Remote = coord
		obsSrv.AddGaugeSource(coord.Gauges)
	}

	svc, err := morrigan.NewJobService(opt)
	if err != nil {
		fatal("%v", err)
	}
	obsSrv.AddGaugeSource(svc.Gauges)

	mux := http.NewServeMux()
	mux.Handle("/api/v1/", svc.Handler())
	mux.Handle("/", obsSrv.Handler())
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(lis)
	}()
	fmt.Fprintf(os.Stderr, "service: job API on http://%s/api/v1/campaigns (%d tenants)\n", lis.Addr(), len(tcs))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills the process the default way

	// Graceful drain: close admission, let the in-flight campaign finish,
	// resolve outstanding fabric leases, then shut the listener down.
	fmt.Fprintln(os.Stderr, "service: draining (admission closed)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "service: %v\n", err)
	}
	if coord != nil {
		if err := coord.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "service: %v\n", err)
		}
		coord.Close()
	}
	svc.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	_ = srv.Shutdown(sctx)
	<-served
	_ = obsSrv.Close()
	fmt.Fprintln(os.Stderr, "service: drained; exiting")
}

// loadTenants resolves the tenant set from -tenants (a JSON file) or the
// -token convenience flag; exactly one must be given.
func loadTenants(path, token string) ([]morrigan.ServiceTenant, error) {
	switch {
	case path != "" && token != "":
		return nil, fmt.Errorf("-tenants and -token are mutually exclusive")
	case path != "":
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var tcs []morrigan.ServiceTenant
		if err := json.Unmarshal(raw, &tcs); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return tcs, nil
	case token != "":
		return []morrigan.ServiceTenant{{Name: "default", Token: token, MaxQueuedJobs: 4096}}, nil
	default:
		return nil, fmt.Errorf("-tenants file or -token is required")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "service: "+format+"\n", args...)
	os.Exit(1)
}
