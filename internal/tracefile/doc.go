// Package tracefile persists trace.Program executions as compact binary
// files and replays them with O(region) memory: every inter-barrier region
// streams straight off disk through the trace.Stream interface, so recorded
// traces feed the profiler, warmup capturer and timing simulator exactly
// like in-memory programs — including region-parallel execution, because
// chunks are independently addressable and os.File supports concurrent
// ReadAt.
//
// # File layout (version 2)
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
// region 1, and so on. The footer metadata is duplicated in a streaming
// header right after the magic and every chunk is prefixed with its uvarint
// byte length, so a consumer reading from a pipe or network body
// (DecodeStream) knows each region's extent the moment its bytes arrive —
// no seeking, no waiting for the trailer. The trailing footer is the
// random-access index: Open seeks to the end, reads the footer offset and
// parses the footer to learn the chunk boundaries. Appending the index lets
// Record work on a pure io.Writer in one pass, without buffering the whole
// program. Open and DecodeStream validate the index through one function,
// and DecodeStream also checks every inline length against the footer's,
// so a truncated or spliced stream is rejected, not silently accepted.
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
// lengths, each behind its inline prefix, starting immediately after the
// streaming header. The footer is self-validating: the prefixed chunks must
// end exactly at the footer offset.
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
// Regions are content-addressed too: the Digest field of DecodeStream's
// RegionChunks is a SHA-256 over the region's chunk payloads plus the
// parameters that determine how they decode (gzip flag, thread count), and
// DecodeStream is the only place one is computed. The digest is
// deliberately independent of the container: the same region content at any
// position of any trace digests equal. internal/service keys per-region
// BBV+LDV profiles by (region digest, signature codec version), and its one
// profile pass streams a trace through DecodeStream — an upload as it
// arrives, a stored trace when an analysis misses — so a profile only ever
// lands under the digest of the bytes it was computed from, and
// re-clustering with different knobs (max K, scale, signature variant)
// reuses every cached profile and pays only k-means.
//
// # Replay caching
//
// Replay is a cold decode by default: a Region/Thread call reads its chunk
// with one ReadAt into a pooled buffer and decodes it from memory, a gzip
// chunk through a 64 KiB inflate window, so an open stream costs the chunk
// as stored, never its inflated size. The MRU prefix pass decodes only line
// addresses and write flags (AppendAccesses), for every region. RegionCache
// keeps regions one bptool run replays in full more than once — analysis,
// estimate and ground truth — decoded in a byte-bounded LRU; the prefix
// pass reads from it but never fills it. It is cmd/bptool -replay-cache-mb;
// the daemons hold no decoded region between replays.
//
// # Versioning
//
// The format version lives in the leading magic ("BPTRACE2") and the
// trailer magic ("BPTIDX2\n"). Incompatible revisions bump the digit in
// both; Open and DecodeStream reject any other magic, version 1's
// "BPTRACE1" (no streaming header, no inline lengths) included, and the
// flags byte leaves room for backward-compatible feature bits. Decode
// failures caused by the input bytes (rather than the source reader) are
// tagged with ErrFormat, so transport layers can tell "you sent garbage"
// from "the connection broke".
package tracefile
