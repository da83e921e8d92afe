package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"spatialseq/internal/geo"
)

func geoPoint(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

// Binary dataset format: a compact, versioned little-endian encoding for
// large corpora (the 10M-POI Gaode-scale datasets make CSV parsing the
// bottleneck; this format loads roughly an order of magnitude faster).
//
// Layout:
//
//	magic   [8]byte  "SSEQDS\x00\x01"   (includes the format version)
//	nCat    uint32
//	nObj    uint32
//	attrDim uint32
//	categories: nCat x { nameLen uint16, name []byte }
//	objects:    nObj x { id int64, x, y float64, cat uint32,
//	                     nameLen uint16, name []byte,
//	                     attrs [attrDim]float64 }
var binaryMagic = [8]byte{'S', 'S', 'E', 'Q', 'D', 'S', 0, 1}

// maxBinaryName caps stored name lengths (the encoding uses uint16).
const maxBinaryName = 65535

// attrBlock is the most floats (1 MiB) ReadBinary allocates for
// attribute vectors before it has read them.
const attrBlock = 1 << 17

// WriteBinary writes d to w in the library's binary layout.
func WriteBinary(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	writeStr := func(s string) error {
		if len(s) > maxBinaryName {
			return fmt.Errorf("dataset: name %q exceeds %d bytes", s[:32], maxBinaryName)
		}
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(s)))
		if _, err := bw.Write(scratch[:2]); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeU32(uint32(d.NumCategories())); err != nil {
		return err
	}
	if err := writeU32(uint32(d.Len())); err != nil {
		return err
	}
	if err := writeU32(uint32(d.AttrDim())); err != nil {
		return err
	}
	for c := 0; c < d.NumCategories(); c++ {
		if err := writeStr(d.CategoryName(CategoryID(c))); err != nil {
			return err
		}
	}
	for i := 0; i < d.Len(); i++ {
		o := d.Object(i)
		if err := writeU64(uint64(o.ID)); err != nil {
			return err
		}
		if err := writeU64(math.Float64bits(o.Loc.X)); err != nil {
			return err
		}
		if err := writeU64(math.Float64bits(o.Loc.Y)); err != nil {
			return err
		}
		if err := writeU32(uint32(o.Category)); err != nil {
			return err
		}
		if err := writeStr(o.Name); err != nil {
			return err
		}
		for _, a := range o.Attr {
			if err := writeU64(math.Float64bits(a)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses a dataset from the library's binary layout.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading binary magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("dataset: not a spatialseq binary dataset (magic %x)", magic)
	}
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	readStr := func() (string, error) {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return "", err
		}
		n := binary.LittleEndian.Uint16(scratch[:2])
		if n == 0 {
			return "", nil
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	nCat, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading category count: %w", err)
	}
	nObj, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading object count: %w", err)
	}
	attrDim, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading attribute dim: %w", err)
	}
	const sanity = 1 << 30
	if nCat > sanity || nObj > sanity || attrDim > 1<<16 {
		return nil, fmt.Errorf("dataset: implausible binary header (%d cats, %d objs, %d attrs)", nCat, nObj, attrDim)
	}
	b := &Builder{}
	for c := uint32(0); c < nCat; c++ {
		name, err := readStr()
		if err != nil {
			return nil, fmt.Errorf("dataset: reading category %d: %w", c, err)
		}
		b.Category(name)
	}
	// The attribute vectors share blocks of at most attrBlock floats, the
	// last one sized to what remains, so a header that promises more
	// objects than the input holds costs at most one block before the
	// read fails. Build copies the vectors into its flat matrix.
	perBlock := attrBlock / max(attrDim, 1)
	var attrs []float64
	for i := uint32(0); i < nObj; i++ {
		if len(attrs) == 0 {
			attrs = make([]float64, int(min(perBlock, nObj-i))*int(attrDim))
		}
		id, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("dataset: reading object %d: %w", i, err)
		}
		xb, err := readU64()
		if err != nil {
			return nil, err
		}
		yb, err := readU64()
		if err != nil {
			return nil, err
		}
		cat, err := readU32()
		if err != nil {
			return nil, err
		}
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		av := attrs[:attrDim:attrDim]
		attrs = attrs[attrDim:]
		for j := range av {
			bits, err := readU64()
			if err != nil {
				return nil, err
			}
			av[j] = math.Float64frombits(bits)
		}
		b.Add(Object{
			ID:       int64(id),
			Loc:      geoPoint(math.Float64frombits(xb), math.Float64frombits(yb)),
			Category: CategoryID(cat),
			Name:     name,
			Attr:     av,
		})
	}
	return b.Build()
}

// WriteBinaryFile stores d at path in binary form.
func WriteBinaryFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, d); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}

// ReadBinaryFile loads a binary dataset from path.
func ReadBinaryFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// ReadAnyFile loads a dataset from path, sniffing the format (binary magic
// first, CSV otherwise).
func ReadAnyFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && n == 0 {
		return nil, fmt.Errorf("dataset: %s is empty", path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if magic == binaryMagic {
		return ReadBinary(f)
	}
	return ReadCSV(f)
}
