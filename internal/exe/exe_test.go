package exe

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sample() *Exe {
	e := New()
	e.Text = []uint32{0x01000000, 0x82006001, 0x91d02000}
	e.Data = []byte{1, 2, 3, 4, 5}
	e.BSSSize = 64
	e.AddSymbol("main", e.TextBase, true)
	e.AddSymbol("helper", e.TextBase+8, true)
	e.AddSymbol("counter", e.DataBase, false)
	return e
}

func TestMarshalRoundTrip(t *testing.T) {
	e := sample()
	got, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		e := New()
		e.Text = make([]uint32, 1+r.Intn(64))
		for i := range e.Text {
			e.Text[i] = r.Uint32()
		}
		e.Data = make([]byte, r.Intn(128))
		r.Read(e.Data)
		e.BSSSize = uint32(r.Intn(1024))
		e.Entry = e.TextBase + uint32(r.Intn(len(e.Text)))*WordSize
		for i := 0; i < r.Intn(5); i++ {
			e.AddSymbol(string(rune('a'+i)), e.TextBase+uint32(4*i), i%2 == 0)
		}
		got, err := Unmarshal(e.Marshal())
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		return reflect.DeepEqual(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	good := sample().Marshal()
	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:10],
		"bad magic":    append([]byte("NOPE"), good[4:]...),
		"truncated":    good[:len(good)-3],
		"trailing":     append(bytes.Clone(good), 0),
	}
	// Bad version.
	bad := bytes.Clone(good)
	bad[7] = 99
	cases["bad version"] = bad
	// Absurd text length.
	huge := bytes.Clone(good)
	huge[16], huge[17], huge[18], huge[19] = 0xff, 0xff, 0xff, 0xff
	cases["huge text"] = huge
	for name, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: Unmarshal succeeded, want error", name)
		}
	}
}

func TestAddressing(t *testing.T) {
	e := sample()
	if e.TextEnd() != e.TextBase+12 {
		t.Errorf("TextEnd = %#x", e.TextEnd())
	}
	if !e.InText(e.TextBase) || !e.InText(e.TextBase+8) || e.InText(e.TextBase+12) {
		t.Error("InText boundaries wrong")
	}
	w, err := e.WordAt(e.TextBase + 4)
	if err != nil || w != 0x82006001 {
		t.Errorf("WordAt = %#x, %v", w, err)
	}
	if _, err := e.WordAt(e.TextBase + 2); err == nil {
		t.Error("misaligned WordAt succeeded")
	}
	if _, err := e.WordAt(e.TextBase - 4); err == nil {
		t.Error("out-of-range WordAt succeeded")
	}
	idx, err := e.IndexOf(e.TextBase + 8)
	if err != nil || idx != 2 {
		t.Errorf("IndexOf = %d, %v", idx, err)
	}
	if e.AddrOf(2) != e.TextBase+8 {
		t.Errorf("AddrOf(2) = %#x", e.AddrOf(2))
	}
}

func TestSymbols(t *testing.T) {
	e := sample()
	s, ok := e.Lookup("helper")
	if !ok || s.Addr != e.TextBase+8 {
		t.Errorf("Lookup(helper) = %+v, %v", s, ok)
	}
	if _, ok := e.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	s, ok = e.SymbolAt(e.TextBase + 4)
	if !ok || s.Name != "main" {
		t.Errorf("SymbolAt(+4) = %+v", s)
	}
	s, ok = e.SymbolAt(e.TextBase + 100)
	if !ok || s.Name != "helper" {
		t.Errorf("SymbolAt(+100) = %+v", s)
	}
	funcs := e.FuncSymbols()
	if len(funcs) != 2 || funcs[0].Name != "main" || funcs[1].Name != "helper" {
		t.Errorf("FuncSymbols = %+v", funcs)
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Errorf("valid image rejected: %v", err)
	}
	e := sample()
	e.Text = nil
	if err := e.Validate(); err == nil {
		t.Error("empty text accepted")
	}
	e = sample()
	e.Entry = 4
	if err := e.Validate(); err == nil {
		t.Error("entry outside text accepted")
	}
	e = sample()
	e.AddSymbol("way-out", 0xdeadbeef, false)
	if err := e.Validate(); err == nil {
		t.Error("out-of-segment symbol accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.out")
	e := sample()
	if err := e.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Error("file round trip mismatch")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("ReadFile(missing) succeeded")
	}
}

// WordAt returns the instruction word at a text address.
func (e *Exe) WordAt(addr uint32) (uint32, error) {
	if !e.InText(addr) {
		return 0, fmt.Errorf("exe: address %#x outside text [%#x,%#x)", addr, e.TextBase, e.TextEnd())
	}
	if addr%WordSize != 0 {
		return 0, fmt.Errorf("exe: misaligned text address %#x", addr)
	}
	return e.Text[(addr-e.TextBase)/WordSize], nil
}

// SymbolAt returns the name of the function symbol covering addr, if any:
// the function symbol with the greatest address <= addr.
func (e *Exe) SymbolAt(addr uint32) (Symbol, bool) {
	var best Symbol
	found := false
	for _, s := range e.Symbols {
		if !s.Func || s.Addr > addr {
			continue
		}
		if !found || s.Addr > best.Addr {
			best, found = s, true
		}
	}
	return best, found
}

// FuncSymbols returns the function symbols sorted by address.
func (e *Exe) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range e.Symbols {
		if s.Func {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
