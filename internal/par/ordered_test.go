package par

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

// chunkText is chunk c of the test stream: lengths vary, so a chunk
// written out of order or twice shows.
func chunkText(c int) string { return fmt.Sprintf("%d:%s;", c, strings.Repeat("x", c%4)) }

// An ordered stream's bytes are the chunks in chunk order at any width,
// also when the buffers are reused by a second stream.
func TestOrderedWriteIsChunkOrderAtAnyWidth(t *testing.T) {
	const n = 11
	var want bytes.Buffer
	for c := 0; c < n; c++ {
		want.WriteString(chunkText(c))
	}
	for _, width := range []int{1, 2, 3, 5, 16} {
		team := NewTeam(width)
		o := NewOrdered(team)
		for rep := 0; rep < 2; rep++ {
			var got bytes.Buffer
			if err := o.Write(&got, n, func(c int, b []byte) []byte {
				return append(b, chunkText(c)...)
			}); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			if got.String() != want.String() {
				t.Fatalf("width %d: got %q, want %q", width, got.String(), want.String())
			}
		}
		team.Close()
	}
}

// Chunk c is formatted into the buffer of worker c mod width, and the
// buffers stay allocated for the next stream.
func TestOrderedChunkUsesItsWorkersBuffer(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	o := NewOrdered(team)
	var got bytes.Buffer
	if err := o.Write(&got, 7, func(c int, b []byte) []byte {
		return append(b, byte('a'+c))
	}); err != nil {
		t.Fatal(err)
	}
	if got.String() != "abcdefg" {
		t.Fatalf("got %q", got.String())
	}
	// The last round ran chunk 6 alone, on worker 0; workers 1 and 2 keep
	// chunks 4 and 5.
	for w, want := range []string{"g", "e", "f"} {
		if string(o.bufs[w]) != want {
			t.Fatalf("worker %d holds %q, want %q", w, o.bufs[w], want)
		}
	}
}

type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left == 0 {
		return 0, errors.New("full")
	}
	f.left--
	return len(p), nil
}

// A failed write ends the stream: no later round is formatted.
func TestOrderedWriteStopsAtFirstError(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	var last atomic.Int64
	err := NewOrdered(team).Write(&failWriter{left: 3}, 10, func(c int, b []byte) []byte {
		for {
			if l := last.Load(); int64(c) <= l || last.CompareAndSwap(l, int64(c)) {
				break
			}
		}
		return append(b, 'x')
	})
	if err == nil || err.Error() != "full" {
		t.Fatalf("err = %v, want full", err)
	}
	// Chunk 3's write failed; its round held chunks 2 and 3.
	if l := last.Load(); l != 3 {
		t.Fatalf("last chunk formatted %d, want 3", l)
	}
}

// Read hands every chunk's bytes to its decoder, whatever the width.
func TestOrderedReadDecodesEveryChunk(t *testing.T) {
	const n, size = 9, 5
	src := make([]byte, n*size)
	for i := range src {
		src[i] = byte(i)
	}
	for _, width := range []int{1, 2, 4} {
		team := NewTeam(width)
		dst := make([]byte, n*size)
		c, err := NewOrdered(team).Read(bytes.NewReader(src), n, size, func(c int, b []byte) {
			copy(dst[c*size:], b)
		})
		team.Close()
		if err != nil {
			t.Fatalf("width %d: chunk %d: %v", width, c, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("width %d: decoded %v, want %v", width, dst, src)
		}
	}
}

// A short stream names the chunk it ran out in, and that chunk's round
// is not decoded.
func TestOrderedReadNamesTheShortChunk(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	decoded := make([]bool, 8)
	c, err := NewOrdered(team).Read(bytes.NewReader(make([]byte, 4*10+3)), 8, 10, func(c int, _ []byte) {
		decoded[c] = true
	})
	if c != 4 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("chunk %d, err %v; want chunk 4, unexpected EOF", c, err)
	}
	if want := []bool{true, true, true, true, false, false, false, false}; fmt.Sprint(decoded) != fmt.Sprint(want) {
		t.Fatalf("decoded %v, want %v", decoded, want)
	}
}
