// Command traceinfo inspects corpus containers, the repository's one
// on-disk trace format:
//
//   - a container file (.mtc, written by tracegen): geometry, a per-chunk
//     table of record counts and frame sizes, and the trace's instruction
//     counts, memory operation mix, code/data footprints and
//     page-transition statistics;
//   - a corpus store directory: the manifest of materialised workloads.
//
// -verify additionally checks corpus contents against the index: every
// chunk's frame checksum, record count and frame length.
//
// Examples:
//
//	traceinfo srv07.mtc
//	traceinfo corpus/qmm-srv-07-0a1b2c3d4e5f.mtc
//	traceinfo -verify corpus/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"morrigan"
	"morrigan/internal/arch"
	"morrigan/internal/stats"
)

func main() {
	verify := flag.Bool("verify", false, "verify corpus chunk checksums, record counts and lengths against the index")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-verify] <corpus.mtc | corpus-dir>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	fi, err := os.Stat(path)
	if err != nil {
		fatal("%v", err)
	}
	if fi.IsDir() {
		storeInfo(path, *verify)
	} else {
		corpusInfo(path, *verify)
	}
}

// storeInfo prints a corpus directory's manifest, optionally verifying every
// container it lists.
func storeInfo(dir string, verify bool) {
	m, err := morrigan.ReadCorpusManifest(dir)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("corpus store      %s (manifest schema %d, %d workloads)\n", dir, m.Schema, len(m.Entries))
	keys := make([]string, 0, len(m.Entries))
	for k := range m.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m.Entries[keys[i]].Workload < m.Entries[keys[j]].Workload })
	failed := 0
	for _, k := range keys {
		e := m.Entries[k]
		size := int64(0)
		if fi, err := os.Stat(filepath.Join(dir, e.File)); err == nil {
			size = fi.Size()
		}
		fmt.Printf("  %-16s %12d records  chunk %6d  %8.1f MB  %s  hash %s\n",
			e.Workload, e.Records, e.ChunkRecords, float64(size)/1e6, e.File, k[:12])
		if verify {
			if err := verifyContainer(filepath.Join(dir, e.File), e.Records); err != nil {
				failed++
				fmt.Printf("    VERIFY FAILED: %v\n", err)
			}
		}
	}
	if verify {
		if failed > 0 {
			fatal("%d of %d containers failed verification", failed, len(keys))
		}
		fmt.Printf("verified %d containers: OK\n", len(keys))
	}
}

// verifyContainer opens one container and checks it chunk by chunk, plus its
// record count against the manifest's.
func verifyContainer(path string, wantRecords uint64) error {
	c, err := morrigan.OpenCorpusFile(path)
	if err != nil {
		return err
	}
	defer c.Close()
	if c.Records() != wantRecords {
		return fmt.Errorf("container holds %d records, manifest says %d", c.Records(), wantRecords)
	}
	return c.Verify()
}

// corpusInfo prints one container's geometry and per-chunk table.
func corpusInfo(path string, verify bool) {
	c, err := morrigan.OpenCorpusFile(path)
	if err != nil {
		fatal("%v", err)
	}
	defer c.Close()
	fmt.Printf("corpus container  %s\n", path)
	fmt.Printf("records           %d\n", c.Records())
	fmt.Printf("chunks            %d (%d records each)\n", c.Chunks(), c.ChunkRecords())
	var size uint64
	for i := 0; i < c.Chunks(); i++ {
		size += c.Chunk(i).Bytes
	}
	fmt.Printf("frames            %.1f MB (%.2f bytes/record)\n", float64(size)/1e6, float64(size)/float64(max(c.Records(), 1)))
	fmt.Printf("%6s %12s %12s %12s\n", "chunk", "records", "bytes", "offset")
	for i := 0; i < c.Chunks(); i++ {
		ci := c.Chunk(i)
		fmt.Printf("%6d %12d %12d %12d\n", i, ci.Records, ci.Bytes, ci.Offset)
	}
	traceStats(c)
	if verify {
		if err := c.Verify(); err != nil {
			fatal("verify: %v", err)
		}
		fmt.Printf("verified %d chunks: OK\n", c.Chunks())
	}
}

// traceStats streams the container and prints its instruction mix,
// footprints and page-transition statistics.
func traceStats(c *morrigan.Corpus) {
	r := c.NewReader()
	defer r.Close()

	var (
		buf         = make([]morrigan.TraceRecord, 4096)
		n           uint64
		loads       uint64
		stores      uint64
		transitions uint64
		prevPage    arch.VPN
		codePages   = map[arch.VPN]bool{}
		dataPages   = map[arch.VPN]bool{}
		pageFreq    = stats.NewPageFrequency()
	)
	for {
		k, err := r.NextBatch(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal("reading record %d: %v", n, err)
		}
		for _, rec := range buf[:k] {
			vpn := rec.PC.Page()
			codePages[vpn] = true
			if n > 0 && vpn != prevPage {
				transitions++
				pageFreq.Observe(uint64(vpn))
			}
			prevPage = vpn
			if rec.HasLoad() {
				loads++
				dataPages[rec.Load.Page()] = true
			}
			if rec.HasStore() {
				stores++
				dataPages[rec.Store.Page()] = true
			}
			n++
		}
	}
	if n == 0 {
		return
	}
	fmt.Printf("instructions      %d\n", n)
	fmt.Printf("loads             %d (%.1f%%)\n", loads, float64(loads)/float64(n)*100)
	fmt.Printf("stores            %d (%.1f%%)\n", stores, float64(stores)/float64(n)*100)
	fmt.Printf("code pages        %d (%.1f MB)\n", len(codePages), float64(len(codePages)*arch.PageSize)/1e6)
	fmt.Printf("data pages        %d (%.1f MB)\n", len(dataPages), float64(len(dataPages)*arch.PageSize)/1e6)
	fmt.Printf("page transitions  %d (every %.1f instructions)\n", transitions, float64(n)/float64(transitions+1))
	fmt.Printf("pages for 90%% of transitions: %d\n", pageFreq.PagesForCoverage(90))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceinfo: "+format+"\n", args...)
	os.Exit(1)
}
