package dataset

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"spatialseq/internal/geo"
)

func TestBinaryRoundTrip(t *testing.T) {
	ds := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.AttrDim() != ds.AttrDim() || got.NumCategories() != ds.NumCategories() {
		t.Fatalf("shape mismatch: %d/%d/%d", got.Len(), got.AttrDim(), got.NumCategories())
	}
	for i := 0; i < ds.Len(); i++ {
		a, b := ds.Object(i), got.Object(i)
		if a.ID != b.ID || a.Loc != b.Loc || a.Name != b.Name || a.Category != b.Category {
			t.Errorf("object %d diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.Attr {
			if a.Attr[j] != b.Attr[j] {
				t.Errorf("object %d attr %d: %g vs %g", i, j, a.Attr[j], b.Attr[j])
			}
		}
	}
	if ds.CategoryName(0) != got.CategoryName(0) {
		t.Error("category names diverged")
	}
}

func TestBinaryEmptyDataset(t *testing.T) {
	b := &Builder{}
	b.Category("only")
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.NumCategories() != 1 {
		t.Errorf("empty round trip: %d objects, %d categories", got.Len(), got.NumCategories())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC========================"),
		append(append([]byte{}, binaryMagic[:]...), 0xff, 0xff, 0xff, 0xff), // truncated header
	}
	for i, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestBinaryRejectsImplausibleHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	// 2^31 categories
	buf.Write([]byte{0, 0, 0, 0x80})
	buf.Write([]byte{0, 0, 0, 0})
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("implausible header should be rejected")
	}
}

// header returns a binary dataset header promising nCat categories,
// nObj objects and attrDim attributes, with no body behind it.
func header(nCat, nObj, attrDim uint32) []byte {
	out := append([]byte{}, binaryMagic[:]...)
	for _, v := range []uint32{nCat, nObj, attrDim} {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// TestBinaryHugeHeaderAllocatesByBytesRead: a 20-byte file whose header
// promises 2^30 objects used to size one attribute array by the header
// alone (a makeslice panic at 2^16 attributes, tens of GB below that).
// The read now allocates attribute blocks of at most attrBlock floats,
// so it fails on the missing first object having allocated a few MiB.
func TestBinaryHugeHeaderAllocatesByBytesRead(t *testing.T) {
	for _, attrDim := range []uint32{1 << 16, 1000, 1} {
		data := header(0, 1<<30, attrDim)
		if len(data) != 20 {
			t.Fatalf("header is %d bytes, want 20", len(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("attrDim %d: a header without objects should fail", attrDim)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("attrDim %d: allocated %d bytes reading a 20-byte file", attrDim, got)
		}
	}
}

// TestBinaryRoundTripAcrossAttrBlocks: vectors that span several
// attribute blocks, the last one partial, read back exactly.
func TestBinaryRoundTripAcrossAttrBlocks(t *testing.T) {
	const attrDim, n = 1000, 300 // 131 objects per block: blocks of 131, 131 and 38
	b := &Builder{}
	cat := b.Category("c")
	for i := 0; i < n; i++ {
		attr := make([]float64, attrDim)
		for j := range attr {
			attr[j] = float64(i*attrDim + j)
		}
		b.Add(Object{ID: int64(i), Loc: geo.Point{X: float64(i), Y: 1}, Category: cat, Attr: attr})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n || got.AttrDim() != attrDim {
		t.Fatalf("read %d objects of %d attributes", got.Len(), got.AttrDim())
	}
	for i := 0; i < n; i++ {
		for j, v := range got.Attr(i) {
			if v != float64(i*attrDim+j) {
				t.Fatalf("object %d attribute %d = %g", i, j, v)
			}
		}
	}
}

// FuzzReadBinary: no input makes ReadBinary panic, and whatever it
// accepts writes back and reads again unchanged.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, buildSmall(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(header(0, 1<<30, 1<<16))
	f.Add(header(1, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, ds); err != nil {
			return // e.g. a name longer than the format's limit
		}
		again, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written dataset: %v", err)
		}
		if again.Len() != ds.Len() || again.AttrDim() != ds.AttrDim() || again.NumCategories() != ds.NumCategories() {
			t.Fatalf("round trip changed the shape: %d/%d/%d -> %d/%d/%d",
				ds.Len(), ds.AttrDim(), ds.NumCategories(), again.Len(), again.AttrDim(), again.NumCategories())
		}
	})
}

func TestBinaryFileRoundTrip(t *testing.T) {
	ds := buildSmall(t)
	path := t.TempDir() + "/ds.bin"
	if err := WriteBinaryFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Errorf("Len = %d", got.Len())
	}
}

func TestReadAnyFileSniffsFormats(t *testing.T) {
	ds := buildSmall(t)
	dir := t.TempDir()

	binPath := dir + "/ds.bin"
	if err := WriteBinaryFile(binPath, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAnyFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Errorf("binary sniff Len = %d", got.Len())
	}

	csvPath := dir + "/ds.csv"
	if err := WriteFile(csvPath, ds); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAnyFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Errorf("CSV sniff Len = %d", got.Len())
	}

	if _, err := ReadAnyFile(dir + "/missing"); err == nil {
		t.Error("missing file should error")
	}
}

func TestBinaryLongNameRejected(t *testing.T) {
	b := &Builder{}
	c := b.Category("c")
	b.Add(Object{ID: 1, Category: c, Attr: []float64{1}, Name: strings.Repeat("x", maxBinaryName+1)})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err == nil {
		t.Error("oversized name should be rejected")
	}
}
