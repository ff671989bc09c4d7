// Command fabric runs the stateless workers of the distributed campaign
// fabric, and compacts result stores.
//
// A distributed run is one `experiments -fabric ADDR` (or `morrigansim
// -fabric ADDR`) coordinator plus any number of `fabric work` processes — on
// the same machine or across machines sharing nothing but the coordinator
// URL. Merged campaign output is byte-identical to a single-process run at
// any worker count, and a worker killed mid-campaign costs only a lease
// timeout (experiments -lease-ttl) before its job is reassigned.
//
// Examples:
//
//	fabric work -coordinator http://127.0.0.1:9090
//	fabric work -coordinator http://bighost:9090 -corpus worker-corpus/ -name w1
//	fabric work -coordinator http://bighost:9090 -trace-out worker-trace.jsonl
//	fabric gc -results results/ -dry-run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"morrigan"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "work":
		if err := work(os.Args[2:], os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, message(err))
			os.Exit(1)
		}
	case "gc":
		gc(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fabric work [flags]   run a worker pulling jobs from a coordinator (experiments -fabric ADDR)
  fabric gc   [flags]   compact a result store (drop records older stats schemas wrote)

run 'fabric work -h' or 'fabric gc -h' for flags`)
	os.Exit(2)
}

// work runs one worker until interrupted or until the coordinator goes
// away, logging to stderr, and returns what stopped it early.
func work(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("fabric work", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (e.g. http://127.0.0.1:9090); required")
		name        = fs.String("name", "", "worker name in coordinator logs (default host:pid)")
		corpus      = fs.String("corpus", "", "local trace corpus directory; misses are fetched from the coordinator")
		traceOut    = fs.String("trace-out", "", "write this worker's own job spans to this file on exit (.jsonl for JSONL, otherwise Chrome trace-event JSON)")
		quiet       = fs.Bool("q", false, "suppress per-job log lines")
	)
	fs.Parse(args)
	if *coordinator == "" {
		fmt.Fprintln(stderr, "fabric work: -coordinator is required")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	wopt := morrigan.FabricWorkerOptions{Coordinator: *coordinator, Name: *name}
	if wopt.Name == "" {
		host, _ := os.Hostname()
		wopt.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if !*quiet {
		wopt.Log = stderr
	}
	if *corpus != "" {
		cs, err := morrigan.OpenCorpusStore(morrigan.CorpusOptions{Dir: *corpus})
		if err != nil {
			return err
		}
		defer cs.Close()
		wopt.Corpus = cs
	}
	var tracer *morrigan.TraceRecorder
	if *traceOut != "" {
		tracer = morrigan.NewTraceRecorder(wopt.Name)
		wopt.Spans = tracer
	}
	worker, err := morrigan.NewFabricWorker(wopt)
	if err != nil {
		return err
	}
	if err := worker.Run(ctx); err != nil {
		return err
	}
	writeTrace(*traceOut, tracer)
	fmt.Fprintf(stderr, "fabric: %s exiting after %d jobs\n", wopt.Name, worker.JobsRun())
	return nil
}

// message is err's text with exactly one "fabric: " prefix: the errors of
// the fabric package carry it already.
func message(err error) string {
	return "fabric: " + strings.TrimPrefix(err.Error(), "fabric: ")
}

// gc compacts a result store: records whose stats were written by an older
// (now unreadable) schema can never be reused and only cost disk and scan
// time. -dry-run reports what would go without removing anything.
func gc(args []string) {
	fs := flag.NewFlagSet("fabric gc", flag.ExitOnError)
	var (
		results = fs.String("results", "", "result store directory to compact; required")
		dryRun  = fs.Bool("dry-run", false, "report reclaimable records without removing them")
	)
	fs.Parse(args)
	if *results == "" {
		fmt.Fprintln(os.Stderr, "fabric gc: -results is required")
		os.Exit(2)
	}
	rs, err := morrigan.OpenResultStore(*results)
	if err != nil {
		fatal("results: %v", err)
	}
	if *dryRun {
		paths, err := rs.Reclaimable()
		if err != nil {
			fatal("gc: %v", err)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "fabric gc: %d of %d records reclaimable (dry run; nothing removed)\n",
			len(paths), rs.Len()+len(paths))
		return
	}
	removed, err := rs.Compact()
	if err != nil {
		fatal("gc: %v", err)
	}
	fmt.Fprintf(os.Stderr, "fabric gc: removed %d stale records; %d reusable results remain\n", removed, rs.Len())
}

// writeTrace exports collected spans to path; a nil tracer is a no-op.
func writeTrace(path string, tracer *morrigan.TraceRecorder) {
	if tracer == nil {
		return
	}
	if err := morrigan.WriteTraceFile(path, tracer.Spans()); err != nil {
		fatal("trace-out: %v", err)
	}
	fmt.Fprintf(os.Stderr, "fabric: wrote %d trace spans to %s\n", tracer.Len(), path)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fabric: "+format+"\n", args...)
	os.Exit(1)
}
