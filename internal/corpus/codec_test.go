package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/workload"
)

func genBlocks(t testing.TB, p workload.Profile, seed uint64, n int) []isa.Block {
	t.Helper()
	prog := workload.MustBuildProgram(p, 0)
	g := workload.NewGenerator(prog, seed)
	blocks := make([]isa.Block, n)
	for i := range blocks {
		g.Next(&blocks[i])
		blocks[i].MemOps = append([]isa.MemOp(nil), blocks[i].MemOps...)
	}
	return blocks
}

func blocksEqual(a, b []isa.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PC != b[i].PC || a[i].NumInstrs != b[i].NumInstrs ||
			a[i].CTI != b[i].CTI || a[i].Target != b[i].Target ||
			len(a[i].MemOps) != len(b[i].MemOps) {
			return false
		}
		for j := range a[i].MemOps {
			if a[i].MemOps[j] != b[i].MemOps[j] {
				return false
			}
		}
	}
	return true
}

// encodeAs builds a payload under either codec id. Ingest writes only
// columnar; the flate payload is what older stores wrote: deflate over
// the raw records.
func encodeAs(t testing.TB, codec byte, blocks []isa.Block) (encLen int, payload []byte) {
	t.Helper()
	var err error
	if codec == codecFlate {
		raw := rawRecords(blocks)
		encLen = len(raw)
		payload, err = deflateBytes(raw)
	} else {
		encLen, payload, err = encodePayload(blocks)
	}
	if err != nil {
		t.Fatalf("codec %d: %v", codec, err)
	}
	return encLen, payload
}

func TestCodecRoundTrips(t *testing.T) {
	blocks := genBlocks(t, workload.Web(), 11, 2000)
	raw := rawRecords(blocks)
	for _, codec := range []byte{codecFlate, codecColumnar} {
		encLen, payload := encodeAs(t, codec, blocks)
		got, err := decodePayload(codec, payload, encLen)
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if !blocksEqual(blocks, got) {
			t.Fatalf("codec %d: round trip changed blocks", codec)
		}
		// The canonical bytes survive the round trip too (the chunk
		// hash depends on this).
		if !bytes.Equal(rawRecords(got), raw) {
			t.Fatalf("codec %d: canonical bytes changed", codec)
		}
	}
}

func TestColumnarCompressesRecordStreams(t *testing.T) {
	blocks := genBlocks(t, workload.DB(), 3, 8000)
	_, flatePayload := encodeAs(t, codecFlate, blocks)
	_, colPayload := encodeAs(t, codecColumnar, blocks)
	// The column split should win on real record streams; allow a
	// small tolerance so the test pins "competitive", not a ratio.
	if float64(len(colPayload)) > 1.05*float64(len(flatePayload)) {
		t.Fatalf("columnar payload %d bytes vs flate %d", len(colPayload), len(flatePayload))
	}
}

func TestDecodePayloadRejectsCorruptInput(t *testing.T) {
	blocks := genBlocks(t, workload.Web(), 12, 500)
	for _, codec := range []byte{codecFlate, codecColumnar} {
		encLen, payload := encodeAs(t, codec, blocks)
		// Truncation.
		if _, err := decodePayload(codec, payload[:len(payload)/2], encLen); err == nil {
			t.Fatalf("codec %d: truncated payload accepted", codec)
		}
		// Wrong transform length.
		if _, err := decodePayload(codec, payload, encLen-1); err == nil {
			t.Fatalf("codec %d: short transform length accepted", codec)
		}
		if _, err := decodePayload(codec, payload, encLen+1); err == nil {
			t.Fatalf("codec %d: long transform length accepted", codec)
		}
	}
	if _, err := decodePayload(99, []byte{1, 2, 3}, 3); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := decodePayload(codecFlate, nil, maxChunkEncBytes+1); err == nil {
		t.Fatal("oversized transform length accepted")
	}
}

// chunkFilesDigest hashes every chunk file in the store, name then
// bytes, in name order.
func chunkFilesDigest(t *testing.T, s *Store) string {
	t.Helper()
	ents, err := os.ReadDir(s.chunkDir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(s.chunkDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name()))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestChunkFilesStable pins what ingest stores, byte for byte. The
// literals were recorded when ingest still encoded every chunk under
// both codecs and kept the smaller: columnar-only ingest must write the
// same files.
func TestChunkFilesStable(t *testing.T) {
	s := newStore(t)
	prog := workload.MustBuildProgram(workload.TPCW(), 0)
	m, err := s.Capture(workload.NewGenerator(prog, 1), "TPC-W", 0, 60_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantID     = "dee9f947593baea0a1522d208c2cc1bb955aeed6c674e9b2531a7c274befd5d3"
		wantStored = 643_728
		wantFiles  = "f3d1d09230555f0db3de96436612e33622c1f5fdf2af58dfa62b42d32a72d80c"
	)
	if m.ID != wantID {
		t.Errorf("manifest id = %s, want %s", m.ID, wantID)
	}
	if m.StoredBytes != wantStored {
		t.Errorf("stored bytes = %d, want %d", m.StoredBytes, wantStored)
	}
	if got := chunkFilesDigest(t, s); got != wantFiles {
		t.Errorf("chunk files digest = %s, want %s", got, wantFiles)
	}
}

// TestReadsFlateChunkFiles rewrites an entry's chunks the way older
// stores wrote them (codec id 0, deflate over the raw records); replay
// and Verify must still accept them.
func TestReadsFlateChunkFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := captureWeb(t, s, 5, 3000)
	for _, ref := range m.Recipe {
		file, err := os.ReadFile(s.chunkPath(ref.Hash))
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := decodeChunkFile(ref.Hash, file, true)
		if err != nil {
			t.Fatal(err)
		}
		encLen, payload := encodeAs(t, codecFlate, blocks)
		flateFile := chunkFileBytes(codecFlate, int(ref.RawLen), encLen, payload)
		if err := os.WriteFile(s.chunkPath(ref.Hash), flateFile, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh handle has no chunk cache, so every read hits the files.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(m.ID); err != nil {
		t.Fatalf("Verify rejected flate chunk files: %v", err)
	}
	src, err := s.ReplaySource(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := genBlocks(t, workload.Web(), 5, int(m.Blocks))
	var b isa.Block
	for i := range want {
		src.Next(&b)
		if !blocksEqual([]isa.Block{b}, want[i:i+1]) {
			t.Fatalf("replayed block %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestChunkFileFrameRoundTrip(t *testing.T) {
	payload := []byte("payload-bytes")
	file := chunkFileBytes(codecColumnar, 1234, 567, payload)
	codec, rawLen, encLen, got, err := parseChunkFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if codec != codecColumnar || rawLen != 1234 || encLen != 567 || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip = %d/%d/%d/%q", codec, rawLen, encLen, got)
	}
	if _, _, _, _, err := parseChunkFile(nil); err == nil {
		t.Fatal("empty chunk file accepted")
	}
}

// BenchmarkChunkCodec measures the ingest codec per paper workload on
// 512-record groups, about the store's average chunk: encode and
// decode MB/s of raw record bytes and the stored/raw size ratio. It
// also reports the chunk dedup ratio of a second capture with another
// seed against the first, through the real content-defined ingest.
func BenchmarkChunkCodec(b *testing.B) {
	const (
		n            = 60_000
		groupRecords = 512
	)
	for _, app := range []string{"DB", "TPC-W", "jApp", "Web"} {
		b.Run(app, func(b *testing.B) {
			prof, err := workload.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			blocks := genBlocks(b, prof, 1, n)
			var groups [][]isa.Block
			rawBytes := 0
			for off := 0; off < n; off += groupRecords {
				g := blocks[off:min(off+groupRecords, n)]
				groups = append(groups, g)
				rawBytes += len(rawRecords(g))
			}
			encLens := make([]int, len(groups))
			payloads := make([][]byte, len(groups))
			var enc, dec time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for j, g := range groups {
					var err error
					if encLens[j], payloads[j], err = encodePayload(g); err != nil {
						b.Fatal(err)
					}
				}
				enc += time.Since(start)
				start = time.Now()
				for j := range groups {
					if _, err := decodePayload(codecColumnar, payloads[j], encLens[j]); err != nil {
						b.Fatal(err)
					}
				}
				dec += time.Since(start)
			}
			b.StopTimer()
			stored := 0
			for _, p := range payloads {
				stored += len(p)
			}

			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			prog := workload.MustBuildProgram(prof, 0)
			var twin Manifest
			for _, seed := range []uint64{1, 2} {
				if twin, err = s.Capture(workload.NewGenerator(prog, seed), app, 0, n, 0); err != nil {
					b.Fatal(err)
				}
			}

			mb := float64(rawBytes) * float64(b.N) / (1 << 20)
			b.ReportMetric(mb/enc.Seconds(), "enc-MB/s")
			b.ReportMetric(mb/dec.Seconds(), "dec-MB/s")
			b.ReportMetric(float64(stored)/float64(rawBytes), "stored/raw")
			b.ReportMetric(twin.Dedup.DedupRatio, "dedup")
		})
	}
}
