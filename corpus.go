package morrigan

import (
	"io"

	"morrigan/internal/tracestore"
)

// Trace corpus types (see internal/tracestore): materialised, chunked
// workload containers with an indexed, checksummed on-disk format, pipelined
// parallel decode, and a shared decoded-chunk cache so concurrent
// simulations on the same workload decode each chunk once.
type (
	// CorpusStore manages a directory of corpus containers with
	// build-on-miss materialisation keyed by workload parameter hashes.
	CorpusStore = tracestore.Store
	// CorpusOptions configures a corpus store.
	CorpusOptions = tracestore.Options
	// Corpus is one open container; NewReader starts a pipelined stream.
	Corpus = tracestore.Corpus
	// CorpusReader streams a corpus with decode-ahead; it implements
	// TraceReader and io.Closer (Close releases cached chunks the reader
	// still pins).
	CorpusReader = tracestore.Reader
	// CorpusCacheStats snapshots the shared decoded-chunk cache.
	CorpusCacheStats = tracestore.CacheStats
	// CorpusBuildOptions configures a standalone container build.
	CorpusBuildOptions = tracestore.BuildOptions
	// CorpusBuildInfo summarises a finished container build.
	CorpusBuildInfo = tracestore.BuildInfo
	// CorpusManifest is a store directory's durable index.
	CorpusManifest = tracestore.Manifest
	// CorpusChunkInfo describes one chunk of an open container.
	CorpusChunkInfo = tracestore.ChunkInfo
)

// OpenCorpusStore opens (creating if necessary) a corpus directory.
func OpenCorpusStore(opt CorpusOptions) (*CorpusStore, error) { return tracestore.Open(opt) }

// OpenCorpusFile opens a single corpus container outside any store.
func OpenCorpusFile(path string) (*Corpus, error) { return tracestore.OpenFile(path) }

// BuildCorpus materialises up to records records from src into a corpus
// container on w, encoding each chunk while the next is generated.
func BuildCorpus(w io.Writer, src TraceReader, records uint64, opt CorpusBuildOptions) (CorpusBuildInfo, error) {
	return tracestore.Build(w, src, records, opt)
}

// ReadCorpusManifest loads a corpus directory's manifest for inspection.
func ReadCorpusManifest(dir string) (CorpusManifest, error) { return tracestore.ReadManifest(dir) }
