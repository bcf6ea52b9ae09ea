// Package exe implements a compact ELF-like container for SPARC V8
// executables: a text segment of 32-bit instruction words, an initialized
// data segment, a BSS size, an entry point, and a symbol table.
//
// The paper's EEL reads and writes real SPARC ELF/a.out binaries through
// libbfd; this package substitutes a self-contained format with the same
// structural properties EEL relies on — fixed-width instruction words at
// known virtual addresses, separate text and data, and named symbols —
// so the editing layer performs genuine binary rewriting (decode words,
// splice instrumentation, relocate branch displacements, re-encode).
package exe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Default segment layout, loosely mirroring SunOS/Solaris SPARC binaries.
const (
	DefaultTextBase = 0x00010000
	DefaultDataBase = 0x40000000

	// WordSize is the SPARC instruction width in bytes.
	WordSize = 4
)

// Magic identifies the container format ("EELX", version 1).
var Magic = [4]byte{'E', 'E', 'L', 'X'}

const formatVersion = 1

// Symbol names an address in the image. Func symbols mark procedure entry
// points; the analyzer uses them to seed control-flow discovery.
type Symbol struct {
	Name string
	Addr uint32
	Func bool
}

// Exe is an in-memory executable image.
type Exe struct {
	Entry    uint32
	TextBase uint32
	Text     []uint32 // instruction words
	DataBase uint32
	Data     []byte
	BSSSize  uint32
	Symbols  []Symbol
}

// New returns an empty executable with the default segment layout and the
// entry point at the start of text.
func New() *Exe {
	return &Exe{
		Entry:    DefaultTextBase,
		TextBase: DefaultTextBase,
		DataBase: DefaultDataBase,
	}
}

// TextEnd returns the first address past the text segment.
func (e *Exe) TextEnd() uint32 { return e.TextBase + uint32(len(e.Text))*WordSize }

// DataEnd returns the first address past the initialized data segment.
func (e *Exe) DataEnd() uint32 { return e.DataBase + uint32(len(e.Data)) }

// InText reports whether addr falls inside the text segment.
func (e *Exe) InText(addr uint32) bool {
	return addr >= e.TextBase && addr < e.TextEnd()
}

// AddrOf returns the text address of instruction index i.
func (e *Exe) AddrOf(i int) uint32 { return e.TextBase + uint32(i)*WordSize }

// IndexOf returns the instruction index of a text address.
func (e *Exe) IndexOf(addr uint32) (int, error) {
	if !e.InText(addr) || addr%WordSize != 0 {
		return 0, fmt.Errorf("exe: bad text address %#x", addr)
	}
	return int((addr - e.TextBase) / WordSize), nil
}

// AddSymbol appends a symbol.
func (e *Exe) AddSymbol(name string, addr uint32, isFunc bool) {
	e.Symbols = append(e.Symbols, Symbol{Name: name, Addr: addr, Func: isFunc})
}

// Lookup returns the symbol with the given name.
func (e *Exe) Lookup(name string) (Symbol, bool) {
	for _, s := range e.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// Validate checks internal consistency: alignment, non-overlapping
// segments, entry inside text, symbols inside a segment.
func (e *Exe) Validate() error {
	if e.TextBase%WordSize != 0 {
		return fmt.Errorf("exe: text base %#x misaligned", e.TextBase)
	}
	if len(e.Text) == 0 {
		return fmt.Errorf("exe: empty text segment")
	}
	if e.TextEnd() > e.DataBase && e.DataBase >= e.TextBase {
		return fmt.Errorf("exe: text [%#x,%#x) overlaps data base %#x",
			e.TextBase, e.TextEnd(), e.DataBase)
	}
	if !e.InText(e.Entry) {
		return fmt.Errorf("exe: entry %#x outside text", e.Entry)
	}
	for _, s := range e.Symbols {
		inData := s.Addr >= e.DataBase && s.Addr < e.DataEnd()+e.BSSSize
		if !e.InText(s.Addr) && !inData {
			return fmt.Errorf("exe: symbol %q at %#x outside segments", s.Name, s.Addr)
		}
	}
	return nil
}

// Marshal serializes the image.
//
// Layout (big-endian, like SPARC itself):
//
//	magic[4] version u32 entry u32
//	textBase u32 textLen u32 dataBase u32 dataLen u32 bssSize u32 nsyms u32
//	text words... data bytes... symbols (nameLen u16, name, addr u32, func u8)...
func (e *Exe) Marshal() []byte {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	be := func(v uint32) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	be(formatVersion)
	be(e.Entry)
	be(e.TextBase)
	be(uint32(len(e.Text)))
	be(e.DataBase)
	be(uint32(len(e.Data)))
	be(e.BSSSize)
	be(uint32(len(e.Symbols)))
	for _, w := range e.Text {
		be(w)
	}
	buf.Write(e.Data)
	for _, s := range e.Symbols {
		var n [2]byte
		binary.BigEndian.PutUint16(n[:], uint16(len(s.Name)))
		buf.Write(n[:])
		buf.WriteString(s.Name)
		be(s.Addr)
		if s.Func {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

// Unmarshal parses a serialized image.
func Unmarshal(b []byte) (*Exe, error) {
	r := bytes.NewReader(b)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("exe: truncated header: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("exe: bad magic %q", magic)
	}
	var hdr [7]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("exe: truncated header: %w", err)
		}
	}
	version := hdr[0]
	if version != formatVersion {
		return nil, fmt.Errorf("exe: unsupported version %d", version)
	}
	e := &Exe{
		Entry:    hdr[1],
		TextBase: hdr[2],
		DataBase: hdr[4],
		BSSSize:  hdr[6],
	}
	textLen, dataLen := hdr[3], hdr[5]
	if uint64(textLen)*4+uint64(dataLen) > uint64(len(b)) {
		return nil, fmt.Errorf("exe: segment lengths exceed file size")
	}
	var nsyms uint32
	if err := binary.Read(r, binary.BigEndian, &nsyms); err != nil {
		return nil, fmt.Errorf("exe: truncated header: %w", err)
	}
	e.Text = make([]uint32, textLen)
	if err := binary.Read(r, binary.BigEndian, e.Text); err != nil {
		return nil, fmt.Errorf("exe: truncated text: %w", err)
	}
	e.Data = make([]byte, dataLen)
	if _, err := io.ReadFull(r, e.Data); err != nil {
		return nil, fmt.Errorf("exe: truncated data: %w", err)
	}
	for i := uint32(0); i < nsyms; i++ {
		var nlen uint16
		if err := binary.Read(r, binary.BigEndian, &nlen); err != nil {
			return nil, fmt.Errorf("exe: truncated symbol table: %w", err)
		}
		name := make([]byte, nlen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("exe: truncated symbol name: %w", err)
		}
		var addr uint32
		if err := binary.Read(r, binary.BigEndian, &addr); err != nil {
			return nil, fmt.Errorf("exe: truncated symbol addr: %w", err)
		}
		fb, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("exe: truncated symbol flags: %w", err)
		}
		e.Symbols = append(e.Symbols, Symbol{Name: string(name), Addr: addr, Func: fb != 0})
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("exe: %d trailing bytes", r.Len())
	}
	return e, nil
}

// WriteFile writes the image to a file.
func (e *Exe) WriteFile(path string) error {
	return os.WriteFile(path, e.Marshal(), 0o644)
}

// ReadFile reads an image from a file.
func ReadFile(path string) (*Exe, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(b)
}
