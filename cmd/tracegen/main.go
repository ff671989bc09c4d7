// Command tracegen materialises a synthetic workload into a corpus
// container, the repository's one on-disk trace format: either a standalone
// container file (-o) that morrigansim -trace replays and traceinfo
// inspects, or a container inside a corpus store directory (-corpus) that
// simulations stream with parallel decode and cross-job chunk sharing.
//
// Examples:
//
//	tracegen -workload qmm-srv-07 -n 10000000 -o srv07.mtc
//	tracegen -workload qmm-srv-07 -n 10000000 -corpus corpus/
package main

import (
	"flag"
	"fmt"
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
		out       = flag.String("o", "", "output container file (this or -corpus is required)")
		corpusDir = flag.String("corpus", "", "materialise into a corpus store directory instead of a standalone container file")
		chunkRecs = flag.Int("chunk-records", 0, "records per container chunk (0 = default 65536)")
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
		buildCorpus(w, *n, *corpusDir, *chunkRecs)
	} else {
		buildFile(w, *n, *out, *chunkRecs)
	}
}

// buildFile writes the workload's first n records to a standalone container
// file; a failed build leaves no file behind.
func buildFile(w morrigan.Workload, n uint64, path string, chunkRecs int) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	start := time.Now()
	info, err := morrigan.BuildCorpus(f, w.NewReader(), n, morrigan.CorpusBuildOptions{ChunkRecords: chunkRecs})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		fatal("%v", err)
	}
	elapsed := time.Since(start)
	fi, err := os.Stat(path)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %d instructions of %s to %s (%d chunks, %.1f MB, %.2f bytes/record, %s)\n",
		info.Records, w.Name, path, info.Chunks, float64(fi.Size())/1e6,
		perRecord(info.Bytes, info.Records), elapsed.Round(time.Millisecond))
}

// buildCorpus materialises the workload into a corpus store.
func buildCorpus(w morrigan.Workload, n uint64, dir string, chunkRecs int) {
	store, err := morrigan.OpenCorpusStore(morrigan.CorpusOptions{Dir: dir, ChunkRecords: chunkRecs})
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
	fmt.Printf("materialised %d instructions of %s into %s (%d chunks of %d, %.1f MB, %.2f bytes/record, %s)\n",
		c.Records(), w.Name, filepath.Join(dir, entry.File), c.Chunks(), c.ChunkRecords(),
		float64(size)/1e6, perRecord(size, c.Records()), elapsed.Round(time.Millisecond))
}

// perRecord is bytes per record, 0 for an empty container.
func perRecord(bytes int64, records uint64) float64 {
	if records == 0 {
		return 0
	}
	return float64(bytes) / float64(records)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
