// Command tracegen materialises a synthetic workload into a replayable
// artifact: either a flat trace file (-o) that morrigansim and any
// trace.Reader consumer can execute, or a chunked corpus container inside a
// corpus store directory (-corpus) that simulations stream with parallel
// decode and cross-job chunk sharing.
//
// Examples:
//
//	tracegen -workload qmm-srv-07 -n 10000000 -o srv07.mgt.gz -compress
//	tracegen -workload qmm-srv-07 -n 10000000 -corpus corpus/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"morrigan"
)

func main() {
	var (
		workload  = flag.String("workload", "qmm-srv-01", "built-in workload name")
		params    = flag.String("params", "", "JSON file defining a custom workload (overrides -workload)")
		n         = flag.Uint64("n", 10_000_000, "instructions to emit")
		out       = flag.String("o", "", "output trace file (this or -corpus is required)")
		compress  = flag.Bool("compress", false, "gzip the trace (-o mode)")
		corpusDir = flag.String("corpus", "", "materialise into a corpus store directory instead of a flat trace file")
		chunkRecs = flag.Int("chunk-records", 0, "records per corpus chunk (0 = default 65536)")
		workers   = flag.Int("workers", 0, "parallel chunk encoders for corpus builds (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if (*out == "") == (*corpusDir == "") {
		fatal("exactly one of -o and -corpus is required")
	}
	var w morrigan.Workload
	if *params != "" {
		pf, err := os.Open(*params)
		if err != nil {
			fatal("%v", err)
		}
		w, err = morrigan.LoadWorkloadSpec(pf)
		pf.Close()
		if err != nil {
			fatal("%v", err)
		}
	} else {
		var ok bool
		w, ok = morrigan.WorkloadByName(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
	}

	if *corpusDir != "" {
		buildCorpus(w, *n, *corpusDir, *chunkRecs, *workers)
		return
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	tw, err := morrigan.NewTraceWriter(f, *compress)
	if err != nil {
		fatal("%v", err)
	}
	gen := morrigan.LimitTrace(w.NewReader(), *n)
	buf := make([]morrigan.TraceRecord, 4096)
	for {
		k, err := gen.NextBatch(buf)
		if err == io.EOF {
			break
		} else if err != nil {
			fatal("generating: %v", err)
		}
		for i := range buf[:k] {
			if err := tw.Write(&buf[i]); err != nil {
				fatal("writing: %v", err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		fatal("%v", err)
	}
	info, err := f.Stat()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %d instructions of %s to %s (%.1f MB, %.2f bytes/instr)\n",
		*n, w.Name, *out, float64(info.Size())/1e6, float64(info.Size())/float64(*n))
}

// buildCorpus materialises the workload into a corpus store.
func buildCorpus(w morrigan.Workload, n uint64, dir string, chunkRecs, workers int) {
	store, err := morrigan.OpenCorpusStore(morrigan.CorpusOptions{
		Dir:          dir,
		ChunkRecords: chunkRecs,
		BuildWorkers: workers,
	})
	if err != nil {
		fatal("%v", err)
	}
	defer store.Close()
	start := time.Now()
	c, err := store.Materialize(w, n)
	if err != nil {
		fatal("%v", err)
	}
	elapsed := time.Since(start)
	entry, ok := store.Manifest().Entries[w.Hash()]
	if !ok {
		fatal("corpus for %s missing from manifest after build", w.Name)
	}
	size := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, entry.File)); err == nil {
		size = fi.Size()
	}
	fmt.Printf("materialised %d instructions of %s into %s (%d chunks of %d, %.1f MB, %.2f bytes/instr, %s)\n",
		c.Records(), w.Name, filepath.Join(dir, entry.File), c.Chunks(), c.ChunkRecords(),
		float64(size)/1e6, float64(size)/float64(c.Records()), elapsed.Round(time.Millisecond))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
