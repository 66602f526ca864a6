package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"cliffedge/internal/graph"
)

// FormatVersion is the on-disk trace format version. It covers everything
// an event stream observably encodes: the binary layout below, and the
// per-event payload sizes (core.Message.WireSize) that feed Event.Bytes.
// Bump it whenever either changes — the golden trace hash is regenerated
// exactly once per bump.
//
// Version history:
//
//	1 — indexed wire vectors (positional WireSize) + this binary codec.
const FormatVersion = 1

// The binary trace format. JSONL (json.go) stays the debug/interop
// format; this is the throughput format for million-event runs.
//
// Layout, following the CRC32-framed shape of internal/store's segment
// log but with varint block framing:
//
//	header:  "CETR" magic, 1 version byte, 3 reserved zero bytes
//	block:   [uvarint n][4-byte LE IEEE CRC32 of payload][payload: n bytes]
//	...
//
// A block's payload is a run of event records. Within a record, strings
// (Node/Peer/View/Value) go through an incremental string table shared
// across the whole stream: reference 0 defines a new string inline
// (uvarint length + bytes, appended to the table), reference k ≥ 1 reads
// table[k−1]. The table is pre-seeded with "" so the common empty fields
// cost one byte. Seq and Time are zigzag deltas against the previous
// record, so monotone streams encode in 1–2 bytes per field.
//
//	record: kind(1B) zz(ΔSeq) zz(ΔTime) ref(Node) ref(Peer) ref(View)
//	        zz(Round) ref(Value) zz(Bytes)
//
// Unlike the store's segment log, a torn tail is an error, not a silent
// truncation: trace files are written in one sitting, so a short read
// means a broken producer, and a converter must not quietly lose events.

var binaryMagic = [4]byte{'C', 'E', 'T', 'R'}

// maxBinaryBlock bounds a decoded block allocation, mirroring
// store.MaxPayload: anything larger is corruption, not data.
const maxBinaryBlock = 1 << 26

// Writer flush thresholds: a block is sealed when it reaches
// blockFlushBytes of payload. Bigger blocks amortise the frame + CRC;
// smaller ones bound loss on crash. 32 KiB ≈ thousands of events.
const blockFlushBytes = 32 << 10

// BinaryWriter incrementally encodes events to w. It is not safe for
// concurrent use; a run's writer sits on its observer stream, which
// serialises events in sequence order on either engine. Call Flush when
// done — events buffer into blocks on top of a bufio.Writer around w, so
// callers need no buffer of their own.
type BinaryWriter struct {
	w        *bufio.Writer
	block    []byte // current block payload under construction
	frame    []byte // scratch for the block frame header
	table    map[string]uint64
	prevSeq  int64
	prevTime int64
	started  bool
	err      error
}

// NewBinaryWriter returns a writer targeting w. The stream header is
// written lazily on the first event (or Flush), so constructing a writer
// is free.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{
		w:     bufio.NewWriter(w),
		table: map[string]uint64{"": 0},
	}
}

func (bw *BinaryWriter) start() error {
	if bw.started {
		return nil
	}
	bw.started = true
	hdr := [8]byte{binaryMagic[0], binaryMagic[1], binaryMagic[2], binaryMagic[3], FormatVersion}
	_, err := bw.w.Write(hdr[:])
	return err
}

func (bw *BinaryWriter) putUvarint(v uint64) {
	bw.block = binary.AppendUvarint(bw.block, v)
}

func (bw *BinaryWriter) putZigzag(v int64) {
	bw.block = binary.AppendVarint(bw.block, v)
}

func (bw *BinaryWriter) putString(s string) {
	if k, ok := bw.table[s]; ok {
		bw.putUvarint(k + 1)
		return
	}
	bw.table[s] = uint64(len(bw.table))
	bw.putUvarint(0)
	bw.putUvarint(uint64(len(s)))
	bw.block = append(bw.block, s...)
}

// Write appends one event to the current block, sealing the block when it
// is full. The first error is sticky.
func (bw *BinaryWriter) Write(e Event) error {
	if bw.err != nil {
		return bw.err
	}
	bw.block = append(bw.block, byte(e.Kind))
	bw.putZigzag(int64(e.Seq) - bw.prevSeq)
	bw.prevSeq = int64(e.Seq)
	bw.putZigzag(e.Time - bw.prevTime)
	bw.prevTime = e.Time
	bw.putString(string(e.Node))
	bw.putString(string(e.Peer))
	bw.putString(e.View)
	bw.putZigzag(int64(e.Round))
	bw.putString(e.Value)
	bw.putZigzag(int64(e.Bytes))
	if len(bw.block) >= blockFlushBytes {
		bw.err = bw.sealBlock()
	}
	return bw.err
}

// sealBlock frames and writes the pending block payload.
func (bw *BinaryWriter) sealBlock() error {
	if err := bw.start(); err != nil {
		return err
	}
	if len(bw.block) == 0 {
		return nil
	}
	bw.frame = binary.AppendUvarint(bw.frame[:0], uint64(len(bw.block)))
	bw.frame = binary.LittleEndian.AppendUint32(bw.frame, crc32.ChecksumIEEE(bw.block))
	if _, err := bw.w.Write(bw.frame); err != nil {
		return err
	}
	_, err := bw.w.Write(bw.block)
	bw.block = bw.block[:0]
	return err
}

// Flush seals the pending block and flushes the underlying buffer. A
// never-written stream still gets its header, so an empty trace file is
// valid and distinguishable from a missing one.
func (bw *BinaryWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	if err := bw.sealBlock(); err != nil {
		bw.err = err
		return err
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// WriteBinary encodes a finished event slice to w in the binary format.
func WriteBinary(w io.Writer, events []Event) error {
	bw := NewBinaryWriter(w)
	for _, e := range events {
		if err := bw.Write(e); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", e.Seq, err)
		}
	}
	return bw.Flush()
}

// binaryReader decodes the framed block stream; the string table persists
// across blocks.
type binaryReader struct {
	r        *bufio.Reader
	table    []string
	prevSeq  int64
	prevTime int64
	block    []byte // remaining payload of the current block
	n        int    // events decoded, for error context
}

func (br *binaryReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(br.block)
	if n <= 0 {
		return 0, fmt.Errorf("trace: corrupt varint at event %d", br.n)
	}
	br.block = br.block[n:]
	return v, nil
}

func (br *binaryReader) zigzag() (int64, error) {
	v, n := binary.Varint(br.block)
	if n <= 0 {
		return 0, fmt.Errorf("trace: corrupt varint at event %d", br.n)
	}
	br.block = br.block[n:]
	return v, nil
}

func (br *binaryReader) str() (string, error) {
	k, err := br.uvarint()
	if err != nil {
		return "", err
	}
	if k > 0 {
		if int(k-1) >= len(br.table) {
			return "", fmt.Errorf("trace: string reference %d out of table (size %d) at event %d",
				k, len(br.table), br.n)
		}
		return br.table[k-1], nil
	}
	ln, err := br.uvarint()
	if err != nil {
		return "", err
	}
	if ln > uint64(len(br.block)) {
		return "", fmt.Errorf("trace: string length %d exceeds block at event %d", ln, br.n)
	}
	s := string(br.block[:ln])
	br.block = br.block[ln:]
	br.table = append(br.table, s)
	return s, nil
}

// nextBlock reads and verifies one framed block. Returns io.EOF on a
// clean end of stream.
func (br *binaryReader) nextBlock() error {
	ln, err := binary.ReadUvarint(br.r)
	if err == io.EOF {
		return io.EOF
	} else if err != nil {
		return fmt.Errorf("trace: torn block frame after event %d: %w", br.n, err)
	}
	if ln == 0 || ln > maxBinaryBlock {
		return fmt.Errorf("trace: implausible block size %d after event %d", ln, br.n)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br.r, crcBuf[:]); err != nil {
		return fmt.Errorf("trace: torn block frame after event %d: %w", br.n, err)
	}
	block := make([]byte, ln)
	if _, err := io.ReadFull(br.r, block); err != nil {
		return fmt.Errorf("trace: torn block after event %d: %w", br.n, err)
	}
	if crc32.ChecksumIEEE(block) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return fmt.Errorf("trace: block checksum mismatch after event %d", br.n)
	}
	br.block = block
	return nil
}

// ReadBinary parses a binary trace written by WriteBinary/BinaryWriter.
// Any truncation or corruption is an error — unlike the store's segment
// replay, a trace file never has a legitimately torn tail.
func ReadBinary(r io.Reader) ([]Event, error) {
	br := &binaryReader{r: bufio.NewReader(r), table: []string{""}}
	var hdr [8]byte
	if _, err := io.ReadFull(br.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a binary trace)", hdr[:4])
	}
	if hdr[4] != FormatVersion {
		return nil, fmt.Errorf("trace: format version %d unsupported (want %d)", hdr[4], FormatVersion)
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("trace: nonzero reserved header bytes")
	}
	var out []Event
	for {
		if len(br.block) == 0 {
			switch err := br.nextBlock(); err {
			case nil:
			case io.EOF:
				return out, nil
			default:
				return nil, err
			}
		}
		e, err := br.readEvent()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		br.n++
	}
}

func (br *binaryReader) readEvent() (Event, error) {
	var e Event
	kind := br.block[0]
	if int(kind) >= len(kindNames) {
		return e, fmt.Errorf("trace: unknown event kind %d at event %d", kind, br.n)
	}
	e.Kind = Kind(kind)
	br.block = br.block[1:]
	dSeq, err := br.zigzag()
	if err != nil {
		return e, err
	}
	br.prevSeq += dSeq
	e.Seq = int(br.prevSeq)
	dTime, err := br.zigzag()
	if err != nil {
		return e, err
	}
	br.prevTime += dTime
	e.Time = br.prevTime
	node, err := br.str()
	if err != nil {
		return e, err
	}
	e.Node = graph.NodeID(node)
	peer, err := br.str()
	if err != nil {
		return e, err
	}
	e.Peer = graph.NodeID(peer)
	if e.View, err = br.str(); err != nil {
		return e, err
	}
	round, err := br.zigzag()
	if err != nil {
		return e, err
	}
	e.Round = int(round)
	if e.Value, err = br.str(); err != nil {
		return e, err
	}
	bytes, err := br.zigzag()
	if err != nil {
		return e, err
	}
	e.Bytes = int(bytes)
	return e, nil
}
