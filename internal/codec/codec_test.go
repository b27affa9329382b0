package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	for _, v := range []uint64{0, 1, 127, 128, 1 << 40, math.MaxUint64} {
		w.Uvarint(v)
	}
	w.Blob([]byte("blob"))
	w.Blob(nil)
	w.String("str")
	w.Digest([32]byte{1, 2, 3})
	w.Uvarint(2) // a count of two one-byte elements
	w.Byte(1)
	w.Byte(2)

	r := NewReader(w.Bytes())
	if r.Byte() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("byte/bool round trip")
	}
	for _, v := range []uint64{0, 1, 127, 128, 1 << 40, math.MaxUint64} {
		if got := r.Uvarint(); got != v {
			t.Fatalf("uvarint %d read back as %d", v, got)
		}
	}
	if !bytes.Equal(r.Blob(), []byte("blob")) || r.Blob() != nil || r.String() != "str" {
		t.Fatal("blob/string round trip")
	}
	if r.Digest() != [32]byte{1, 2, 3} {
		t.Fatal("digest round trip")
	}
	if n := r.Count(1); n != 2 || r.Byte() != 1 || r.Byte() != 2 {
		t.Fatal("count round trip")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestStrictReader: every way an input can be longer, shorter or less
// minimal than its canonical encoding is an ErrMalformed.
func TestStrictReader(t *testing.T) {
	for name, read := range map[string]func() error{
		"trailing": func() error {
			r := NewReader([]byte{1, 2})
			r.Byte()
			return r.Done()
		},
		"truncated byte":    func() error { r := NewReader(nil); r.Byte(); return r.Done() },
		"truncated varint":  func() error { r := NewReader([]byte{0x80}); r.Uvarint(); return r.Done() },
		"non-minimal":       func() error { r := NewReader([]byte{0x81, 0x00}); r.Uvarint(); return r.Done() },
		"non-minimal zero":  func() error { r := NewReader([]byte{0x80, 0x00}); r.Uvarint(); return r.Done() },
		"varint overflow":   func() error { r := NewReader(bytes.Repeat([]byte{0xff}, 11)); r.Uvarint(); return r.Done() },
		"blob past end":     func() error { r := NewReader([]byte{5, 'a', 'b'}); r.Blob(); return r.Done() },
		"huge length":       func() error { r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); _ = r.String(); return r.Done() },
		"short digest":      func() error { r := NewReader(make([]byte, 31)); r.Digest(); return r.Done() },
		"bool not 0 or 1":   func() error { r := NewReader([]byte{2}); r.Bool(); return r.Done() },
		"count beyond room": func() error { r := NewReader([]byte{3, 0, 0, 0, 0, 0}); r.Count(3); return r.Done() },
	} {
		if err := read(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestFirstErrorSticks(t *testing.T) {
	r := NewReader([]byte{0x80, 0x00, 0x01})
	r.Uvarint()
	if r.Byte() != 0 || !errors.Is(r.Done(), errOverlong) {
		t.Fatal("a read after a failure succeeded or replaced the first error")
	}
}

func TestForeignFormat(t *testing.T) {
	for in, want := range map[string]string{
		`{"format":"prever/pbft/snap/v1","view":1}`: "prever/pbft/snap/v1",
		`{"k":"pp"}`:              "unlabelled",
		"\x13prever/pbft/snap/v2": "unrecognised",
	} {
		if got := ForeignFormat([]byte(in), "unlabelled"); got != want {
			t.Errorf("ForeignFormat(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestList(t *testing.T) {
	enc := func(s *string, w *Writer) { w.String(*s) }
	dec := func(s *string, r *Reader) { *s = r.String() }
	w := NewWriter(0)
	WriteList(w, []string{"a", "", "bc"}, enc)
	WriteList[string](w, nil, enc)
	r := NewReader(w.Bytes())
	got, empty := ReadList(r, 1, dec), ReadList(r, 1, dec)
	if err := r.Done(); err != nil || len(got) != 3 || got[0] != "a" || got[1] != "" || got[2] != "bc" || empty != nil {
		t.Fatalf("list round trip: %q %q %v", got, empty, err)
	}
	// A count the input cannot hold fails before anything is allocated.
	r = NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})
	if xs := ReadList(r, 1, dec); xs != nil || !errors.Is(r.Done(), ErrMalformed) {
		t.Fatalf("hostile count decoded %d elements", len(xs))
	}
}
