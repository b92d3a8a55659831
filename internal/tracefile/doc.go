// Package tracefile persists trace.Program executions as compact binary
// files and replays them with O(region) memory: every inter-barrier region
// streams straight off disk through the trace.Stream interface, so recorded
// traces feed the profiler, warmup capturer and timing simulator exactly
// like in-memory programs — including region-parallel execution, because
// chunks are independently addressable and os.File supports concurrent
// ReadAt.
//
// # File layout (version 2, the default)
//
//	+--------------------------------------------------------------+
//	| magic "BPTRACE2" (8 bytes)                                    |
//	+--------------------------------------------------------------+
//	| streaming header: nameLen, name, threads, regions, flags      |
//	+--------------------------------------------------------------+
//	| len | chunk[region 0][thread 0]                               |
//	| len | chunk[region 0][thread 1]                               |
//	| ...                                                           |
//	| len | chunk[region R-1][thread T-1]                           |
//	+--------------------------------------------------------------+
//	| footer (see below)                                            |
//	+--------------------------------------------------------------+
//	| footer offset (uint64 little-endian, 8 bytes)                 |
//	| trailer magic "BPTIDX2\n" (8 bytes)                           |
//	+--------------------------------------------------------------+
//
// Chunks are laid out region-major: all T thread streams of region 0, then
// region 1, and so on. Version 2 duplicates the footer metadata in a
// streaming header right after the magic and prefixes every chunk with its
// uvarint byte length, so a consumer reading from a pipe or network body
// (DecodeStream) knows each region's extent the moment its bytes arrive —
// no seeking, no waiting for the trailer. The trailing footer remains the
// random-access index: Open seeks to the end, validates the trailer magic,
// reads the footer offset and parses the footer to learn the chunk
// boundaries, exactly as in version 1. Appending the index lets Record
// work on a pure io.Writer in one pass, without buffering the whole
// program; DecodeStream cross-checks the footer against the streaming
// header and the inline lengths, so a truncated or spliced stream is
// rejected, not silently accepted.
//
// Version 1 ("BPTRACE1"/"BPTIDX1\n") is the same layout minus the
// streaming header and the inline length prefixes. Nothing writes it any
// more (Record writes version 2 only), but it remains fully readable — Open
// handles both, and testdata/ holds files of it recorded by its last writer —
// it just cannot be decoded incrementally, so a v1 upload is stored first
// and profiled later.
//
// # Footer
//
// All integers below are unsigned varints (encoding/binary Uvarint) unless
// noted:
//
//	nameLen, name bytes      program name
//	threads                  thread count T
//	regions                  region count R
//	flags (1 raw byte)       bit 0: chunks are gzip-compressed
//	R*T chunk lengths        compressed byte length of every chunk,
//	                         region-major, in file order
//
// Chunk byte offsets are not stored; they are the prefix sums of the
// lengths, starting immediately after the 8-byte magic. The footer is
// self-validating: the lengths must sum exactly to footerOffset-8.
//
// # Chunk encoding
//
// A chunk is the dynamic basic block sequence of one thread within one
// region. With the gzip flag set, each chunk is an independent gzip stream
// (so random access never decompresses neighbouring chunks); otherwise it
// is the raw encoding. Per trace.BlockExec, the encoding is:
//
//	hdr      uvarint: len(Accs)<<2 | Branch<<1 | Taken
//	block    varint (zigzag): Block delta vs the previous record's Block
//	instrs   uvarint: Instrs
//	writes   ceil(len(Accs)/8) raw bytes: Access.Write bits, LSB-first
//	addrs    len(Accs) varints (zigzag): Access.Addr delta vs the
//	         previous access address (carried across records)
//
// Both delta predictors (previous block id, previous access address) start
// at zero at the beginning of every chunk, so chunks decode independently.
// Delta coding makes the common patterns — loop bodies re-executing the
// same block, sequential and strided sweeps — encode in one or two bytes
// per field. End of chunk is end of data: a clean EOF at a record boundary
// terminates the stream.
//
// # Content addressing
//
// A trace file's identity is the SHA-256 of its bytes. The encoding above
// is deterministic — chunk order, varint widths and delta predictors are
// fully determined by the program — so recording the same program twice
// (with the same gzip setting) produces byte-identical files and therefore
// the same address. internal/store exploits this: traces are filed as
// traces/<sha256>.bptrace, and every derived artifact (selection, estimate,
// ground truth) is cached under that key plus a hash of the parameters it
// depends on, making the expensive analysis stages cacheable by content.
// Note the gzip flag changes the bytes, so a compressed and an uncompressed
// recording of one program are distinct store entries by design.
//
// Regions are content-addressed too: RegionDigest (and the Digest field of
// DecodeStream's RegionChunks) is a SHA-256 over the region's chunk
// payloads plus the parameters that determine how they decode (gzip flag,
// thread count). The digest is deliberately independent of the container —
// a v1 and a v2 recording of the same program agree region by region, and
// DecodeStream computes it incrementally while Open computes it by random
// access, to the same value. internal/service keys per-region BBV+LDV
// profiles by (region digest, signature codec version), which is what lets
// a streaming upload profile regions mid-transfer and lets re-clustering
// with different knobs (max K, scale, signature variant) reuse every
// cached profile and pay only k-means.
//
// # Replay caching
//
// Replay is a cold decode by default: every Region/Thread call re-reads,
// re-inflates (for gzip traces) and re-varint-decodes its chunk. Decoding
// state is pooled process-wide — gzip inflaters and bufio buffers are
// reused across streams — so even cold replay allocates only per-stream
// bookkeeping. For workloads that replay regions repeatedly (warmup
// capture, estimate+simulate pairs, campaign grids), RegionCache keeps
// fully decoded regions in a byte-bounded LRU keyed by trace content, and
// serves them as zero-copy, zero-allocation streams; see RegionCache for
// the keying, bounding and equivalence contract. The cache defaults to
// DefaultRegionCacheBytes (256 MiB) and is exposed as -replay-cache-mb on
// cmd/bpserve and cmd/bpworker, and as barrierpoint.NewReplayCache in the
// public API.
//
// # Versioning
//
// The format version lives in the leading magic ("BPTRACE1", "BPTRACE2")
// and the trailer magic ("BPTIDX1\n", "BPTIDX2\n"). Incompatible revisions
// bump the digit in both; Open rejects files whose magics it does not
// recognize, and the flags byte leaves room for backward-compatible
// feature bits. Decode failures caused by the input bytes (rather than the
// source reader) are tagged with ErrFormat, so transport layers can tell
// "you sent garbage" from "the connection broke".
package tracefile
