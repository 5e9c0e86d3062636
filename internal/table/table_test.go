package table

import (
	"bytes"
	"strings"
	"testing"
)

func TestSchemaCol(t *testing.T) {
	s := NewSchema("title", "price", "year")
	if s.Col("price") != 1 {
		t.Fatalf("Col(price) = %d", s.Col("price"))
	}
	if s.Col("missing") != -1 {
		t.Fatalf("Col(missing) = %d, want -1", s.Col("missing"))
	}
	if got := s.Names(); len(got) != 3 || got[0] != "title" || got[2] != "year" {
		t.Fatalf("Names = %v", got)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestAppendAssignsIDs(t *testing.T) {
	tb := New("x", NewSchema("a"))
	tb.Append("v0")
	tb.Append("v1")
	if tb.Tuples[0].ID != 0 || tb.Tuples[1].ID != 1 {
		t.Fatalf("IDs = %d,%d", tb.Tuples[0].ID, tb.Tuples[1].ID)
	}
	if tb.Value(1, 0) != "v1" {
		t.Fatalf("Value(1,0) = %q", tb.Value(1, 0))
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	New("x", NewSchema("a", "b")).Append("only-one")
}

func TestIsMissing(t *testing.T) {
	for _, v := range []string{"", "  ", "null", "NULL", "NaN", "?"} {
		if !IsMissing(v) {
			t.Errorf("IsMissing(%q) = false", v)
		}
	}
	for _, v := range []string{"0", "x", "none at all"} {
		if IsMissing(v) {
			t.Errorf("IsMissing(%q) = true", v)
		}
	}
}

func TestParseNumAndNormalize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"12.5", 12.5, true}, {"  -3 ", -3, true}, {"\t1e3\n", 1000, true},
		{"", 0, false}, {" NULL ", 0, false}, {"nan", 0, false}, {"?", 0, false},
		{"n/a", 0, false}, {"12 apples", 0, false},
	} {
		if got, ok := ParseNum(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseNum(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
	for in, want := range map[string]string{
		"  War AND Peace ": "war and peace", "": "", " null": "", "NaN ": "", "?": "", "x": "x",
	} {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func buildTable(rows [][]string, names ...string) *Table {
	tb := New("t", NewSchema(names...))
	for _, r := range rows {
		tb.Append(r...)
	}
	tb.InferTypes()
	return tb
}

func TestInferNumeric(t *testing.T) {
	tb := buildTable([][]string{{"1.5"}, {"2"}, {"-3"}, {""}}, "price")
	a := tb.Schema.Attrs[0]
	if a.Type != Numeric || a.Char != NumericChar {
		t.Fatalf("price inferred as %v/%v", a.Type, a.Char)
	}
}

func TestInferNumericWithNoise(t *testing.T) {
	// One bad value in 20 still counts as numeric (≥90% threshold).
	rows := make([][]string, 20)
	for i := range rows {
		rows[i] = []string{"42"}
	}
	rows[7] = []string{"N/A-ish"}
	tb := buildTable(rows, "n")
	if tb.Schema.Attrs[0].Type != Numeric {
		t.Fatal("noisy numeric column not inferred Numeric")
	}
}

func TestInferStringCharacteristics(t *testing.T) {
	tb := buildTable([][]string{
		{"smith", "acme inc", "123 north main street madison wi usa zip", strings.Repeat("w ", 15)},
		{"jones", "initech", "456 south park ave new york ny usa apt", strings.Repeat("w ", 20)},
	}, "last", "brand", "addr", "descr")
	want := []AttrChar{SingleWord, ShortString, MediumString, LongString}
	for i, w := range want {
		if got := tb.Schema.Attrs[i].Char; got != w {
			t.Errorf("attr %s char = %v, want %v", tb.Schema.Attrs[i].Name, got, w)
		}
		if tb.Schema.Attrs[i].Type != String {
			t.Errorf("attr %s type = %v, want String", tb.Schema.Attrs[i].Name, tb.Schema.Attrs[i].Type)
		}
	}
}

func TestInferAllMissingDefaults(t *testing.T) {
	tb := buildTable([][]string{{""}, {"null"}}, "ghost")
	a := tb.Schema.Attrs[0]
	if a.Type != String || a.Char != ShortString {
		t.Fatalf("all-missing attr inferred %v/%v", a.Type, a.Char)
	}
}

func TestSub(t *testing.T) {
	tb := New("x", NewSchema("a"))
	for i := 0; i < 5; i++ {
		tb.Append(strings.Repeat("v", i+1))
	}
	sub := tb.Sub("y", 3)
	if sub.Len() != 3 || sub.Name != "y" {
		t.Fatalf("Sub len=%d name=%s", sub.Len(), sub.Name)
	}
	if sub.Tuples[2].ID != 2 {
		t.Fatalf("Sub re-ID failed: %d", sub.Tuples[2].ID)
	}
	if got := tb.Sub("z", 99).Len(); got != 5 {
		t.Fatalf("Sub overlong = %d", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := "title,price\n\"the \"\"thing\"\"\",9.99\nhello world,5\n"
	tb, err := ReadCSV(strings.NewReader(in), "books")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if tb.Value(0, 0) != `the "thing"` {
		t.Fatalf("quoted value = %q", tb.Value(0, 0))
	}
	if tb.Schema.Attrs[1].Type != Numeric {
		t.Fatal("price should infer Numeric after ReadCSV")
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadCSV(&buf, "books2")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != tb.Len() || rt.Value(0, 0) != tb.Value(0, 0) {
		t.Fatal("round trip mismatch")
	}
}

func TestCSVRaggedRowRejected(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,b\n1\n"), "bad")
	if err == nil {
		t.Fatal("expected error for ragged row")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name the line: %v", err)
	}
}

func TestCSVEmptyInput(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "empty"); err == nil {
		t.Fatal("expected error for missing header")
	}
}

func TestPairString(t *testing.T) {
	if got := (Pair{3, 7}).String(); got != "(3,7)" {
		t.Fatalf("Pair.String = %q", got)
	}
}

func TestTypeStrings(t *testing.T) {
	if String.String() != "string" || Numeric.String() != "numeric" {
		t.Fatal("AttrType strings wrong")
	}
	if NumericChar.String() != "numeric" || LongString.String() != "long-string" {
		t.Fatal("AttrChar strings wrong")
	}
	if AttrType(9).String() == "" || AttrChar(9).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}
