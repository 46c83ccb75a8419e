package corpus

// Per-chunk storage codecs. A chunk's logical content is its
// "self-based" record byte stream: the v1 record encoding with the
// delta base starting at zero, so the first record carries the
// absolute PC and the chunk decodes without outside context. The
// chunk hash is the SHA-256 of those bytes — codec-independent, so a
// chunk re-encoded under a different codec keeps its identity.
//
// Two codec ids are defined:
//
//	codecFlate    (0): flate over the record bytes as-is — the same
//	                   transform the IPFTRC02 container applies.
//	codecColumnar (1): a delta+varint column split before flate. The
//	                   interleaved record fields are regrouped into
//	                   homogeneous streams (all PC deltas, then all
//	                   instruction counts, then CTI kinds, branch
//	                   target deltas, memop counts, memop address
//	                   deltas, memop kinds). Fetch-line deltas are
//	                   near-monotonic and small, so each stream is far
//	                   more self-similar than the interleaving, and
//	                   flate's matches get longer.
//
// Ingest writes columnar only: on captures of the four paper workloads
// it was smaller than flate on every chunk. Flate is read-only
// compatibility. The chunk file records its codec id, so chunk files
// written by older stores or federation peers still decode and verify.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/trace"
)

const (
	codecFlate    byte = 0
	codecColumnar byte = 1

	// flateLevel trades ingest speed for storage density; the corpus
	// is written once and replayed many times.
	flateLevel = flate.DefaultCompression

	// maxChunkRecords bounds decode allocations against corrupt or
	// hostile chunk files (federation decodes before trusting).
	maxChunkRecords = 1 << 22
	// maxChunkEncBytes bounds the inflate target the same way.
	maxChunkEncBytes = 1 << 28
)

// rawRecords returns the self-based record encoding of blocks — the
// canonical chunk content the CAS hashes and codecs compress.
func rawRecords(blocks []isa.Block) []byte {
	var buf bytes.Buffer
	scratch := make([]byte, binary.MaxVarintLen64)
	var prevNext isa.Addr
	for i := range blocks {
		prevNext = trace.EncodeRecord(&buf, scratch, prevNext, &blocks[i])
	}
	return buf.Bytes()
}

// decodeRawRecords inverts rawRecords, validating every block.
func decodeRawRecords(raw []byte) ([]isa.Block, error) {
	r := bytes.NewReader(raw)
	var (
		blocks   []isa.Block
		prevNext isa.Addr
	)
	for {
		if len(blocks) >= maxChunkRecords {
			return nil, fmt.Errorf("chunk exceeds %d records", maxChunkRecords)
		}
		var b isa.Block
		err := trace.ReadRecord(r, &prevNext, uint64(len(blocks)), &b)
		if err == io.EOF {
			return blocks, nil
		}
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
	}
}

// encodePayload compresses blocks under the columnar codec. It
// returns the pre-compression transform length (needed to inflate
// exactly) and the compressed payload.
func encodePayload(blocks []isa.Block) (encLen int, payload []byte, err error) {
	plain := columnarEncode(blocks)
	comp, err := deflateBytes(plain)
	if err != nil {
		return 0, nil, err
	}
	return len(plain), comp, nil
}

// decodePayload inverts a payload under either codec id. encLen is
// the chunk's stored pre-compression transform length (the exact
// inflate target). The result is untrusted until the caller checks the
// chunk hash against rawRecords of the returned blocks.
func decodePayload(codec byte, payload []byte, encLen int) ([]isa.Block, error) {
	if encLen < 0 || encLen > maxChunkEncBytes {
		return nil, fmt.Errorf("implausible chunk transform length %d", encLen)
	}
	plain, err := inflateBytes(payload, encLen)
	if err != nil {
		return nil, err
	}
	switch codec {
	case codecFlate:
		return decodeRawRecords(plain)
	case codecColumnar:
		return columnarDecode(plain)
	default:
		return nil, fmt.Errorf("unknown chunk codec %d", codec)
	}
}

func deflateBytes(p []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flateLevel)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(p); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func inflateBytes(comp []byte, plainLen int) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close()
	out := make([]byte, plainLen)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, fmt.Errorf("chunk inflate: %w", err)
	}
	// The payload must end exactly where it claims to.
	var tail [1]byte
	if n, _ := fr.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("chunk inflate: trailing data past %d bytes", plainLen)
	}
	return out, nil
}

// columnarEncode regroups record fields into homogeneous streams.
// Every varint value is numerically identical to its self-based AoS
// counterpart (same delta bases), so the transform changes layout
// only, never information.
func columnarEncode(blocks []isa.Block) []byte {
	var (
		pcs, lens, targets, opCounts, opDeltas bytes.Buffer
		ctis, kinds                            bytes.Buffer
	)
	scratch := make([]byte, binary.MaxVarintLen64)
	sv := func(dst *bytes.Buffer, v int64) {
		dst.Write(scratch[:binary.PutVarint(scratch, v)])
	}
	uv := func(dst *bytes.Buffer, v uint64) {
		dst.Write(scratch[:binary.PutUvarint(scratch, v)])
	}
	var prevNext isa.Addr
	for i := range blocks {
		b := &blocks[i]
		sv(&pcs, int64(b.PC)-int64(prevNext))
		uv(&lens, uint64(b.NumInstrs))
		ctis.WriteByte(byte(b.CTI))
		if b.CTI.ChangesFlow() {
			sv(&targets, int64(b.Target)-int64(b.End()))
		}
		uv(&opCounts, uint64(len(b.MemOps)))
		prev := b.PC
		for _, m := range b.MemOps {
			sv(&opDeltas, int64(m.Addr)-int64(prev))
			kinds.WriteByte(byte(m.Kind))
			prev = m.Addr
		}
		prevNext = b.NextPC()
	}
	var out bytes.Buffer
	uv(&out, uint64(len(blocks)))
	for _, col := range []*bytes.Buffer{&pcs, &lens, &ctis, &targets, &opCounts, &opDeltas, &kinds} {
		out.Write(col.Bytes())
	}
	return out.Bytes()
}

// columnarDecode inverts columnarEncode, validating every block with
// the same checks the AoS record decoder applies. Columns are parsed
// into flat slices first (the pc-delta base is the previous block's
// NextPC, which needs fields from later columns), then blocks are
// assembled in one pass.
func columnarDecode(plain []byte) ([]isa.Block, error) {
	r := bytes.NewReader(plain)
	colErr := func(col string, err error) error {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("columnar chunk: %s column: %w", col, err)
	}
	nrecs, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("columnar chunk: %w", err)
	}
	if nrecs > maxChunkRecords {
		return nil, fmt.Errorf("columnar chunk: implausible record count %d", nrecs)
	}
	n := int(nrecs)
	pcDeltas := make([]int64, n)
	for i := range pcDeltas {
		if pcDeltas[i], err = binary.ReadVarint(r); err != nil {
			return nil, colErr("pc", err)
		}
	}
	lens := make([]uint64, n)
	for i := range lens {
		if lens[i], err = binary.ReadUvarint(r); err != nil {
			return nil, colErr("len", err)
		}
	}
	ctis := make([]byte, n)
	if _, err := io.ReadFull(r, ctis); err != nil {
		return nil, colErr("cti", err)
	}
	flowChanging := 0
	for i, c := range ctis {
		if int(c) >= isa.NumCTIKinds {
			return nil, fmt.Errorf("columnar chunk: block %d: invalid CTI %d", i, c)
		}
		if isa.CTIKind(c).ChangesFlow() {
			flowChanging++
		}
	}
	targetDeltas := make([]int64, flowChanging)
	for i := range targetDeltas {
		if targetDeltas[i], err = binary.ReadVarint(r); err != nil {
			return nil, colErr("target", err)
		}
	}
	opCounts := make([]int, n)
	totalOps := 0
	for i := range opCounts {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, colErr("memop count", err)
		}
		if v > 1<<16 {
			return nil, fmt.Errorf("columnar chunk: block %d: implausible memop count %d", i, v)
		}
		opCounts[i] = int(v)
		totalOps += int(v)
	}
	opDeltas := make([]int64, totalOps)
	for i := range opDeltas {
		if opDeltas[i], err = binary.ReadVarint(r); err != nil {
			return nil, colErr("memop delta", err)
		}
	}
	kinds := make([]byte, totalOps)
	if _, err := io.ReadFull(r, kinds); err != nil {
		return nil, colErr("memop kind", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("columnar chunk: %d trailing bytes", r.Len())
	}
	blocks := make([]isa.Block, n)
	var prevNext isa.Addr
	tgt, op := 0, 0
	for i := range blocks {
		b := &blocks[i]
		b.PC = isa.Addr(int64(prevNext) + pcDeltas[i])
		b.NumInstrs = int(lens[i])
		b.CTI = isa.CTIKind(ctis[i])
		if b.CTI.ChangesFlow() {
			b.Target = isa.Addr(int64(b.End()) + targetDeltas[tgt])
			tgt++
		}
		if opCounts[i] > 0 {
			b.MemOps = make([]isa.MemOp, opCounts[i])
			prev := b.PC
			for j := range b.MemOps {
				if kinds[op] > byte(isa.MemStore) {
					return nil, fmt.Errorf("columnar chunk: block %d: invalid memop kind %d", i, kinds[op])
				}
				addr := isa.Addr(int64(prev) + opDeltas[op])
				b.MemOps[j] = isa.MemOp{Addr: addr, Kind: isa.MemKind(kinds[op])}
				prev = addr
				op++
			}
		}
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("columnar chunk: block %d: %w", i, err)
		}
		prevNext = b.NextPC()
	}
	return blocks, nil
}
