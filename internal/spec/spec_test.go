package spec

import (
	"strings"
	"testing"
)

const itchSpec = `
# Figure 2 of the paper.
header_type itch_add_order_t {
    fields {
        shares: 32;
        stock: 64;
        price: 32;
    }
}
header itch_add_order_t add_order;

@query_field(add_order.shares)
@query_field(add_order.price)
@query_field_exact(add_order.stock)
@query_counter(my_counter, 100)
`

func TestParseFigure2(t *testing.T) {
	s, err := Parse(itchSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Types) != 1 || len(s.Instances) != 1 {
		t.Fatalf("types=%d instances=%d", len(s.Types), len(s.Instances))
	}
	if len(s.Queries) != 3 {
		t.Fatalf("queries=%d, want 3", len(s.Queries))
	}
	if len(s.States) != 1 || s.States[0].Name != "my_counter" || s.States[0].WindowUS != 100 {
		t.Fatalf("states=%+v", s.States)
	}
	stock, err := s.LookupField("add_order.stock")
	if err != nil {
		t.Fatal(err)
	}
	if stock.Match != MatchExact || stock.Bits != 64 {
		t.Fatalf("stock = %+v", stock)
	}
	// Short-name resolution.
	price, err := s.LookupField("price")
	if err != nil {
		t.Fatal(err)
	}
	if price.Name != "add_order.price" || price.Match != MatchRange {
		t.Fatalf("price = %+v", price)
	}
}

func TestFieldOffsets(t *testing.T) {
	s := MustParse(itchSpec)
	stock, _ := s.LookupField("stock")
	if stock.ByteOffset != 4 || stock.ByteLen != 8 {
		t.Fatalf("stock offset/len = %d/%d, want 4/8", stock.ByteOffset, stock.ByteLen)
	}
	price, _ := s.LookupField("price")
	if price.ByteOffset != 12 || price.ByteLen != 4 {
		t.Fatalf("price offset/len = %d/%d, want 12/4", price.ByteOffset, price.ByteLen)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"header foo_t x;",                    // unknown type
		"header_type t { fields { a: 0; } }", // zero width
		"@query_field(nope.field)",           // unknown instance
		"header_type t { fields { a: 8; } } header t h; @query_field(h.b)", // unknown field
		"@query_counter(c)",                 // missing window
		"@nonsense(1)",                      // unknown annotation
		"header_type t { fields { a: 8 } }", // missing semicolon
		"header_type t { fields { a: 128; } } header t h; @query_field(h.a)", // >64-bit match
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDuplicateAnnotationRejected(t *testing.T) {
	src := itchSpec + "\n@query_field(add_order.shares)\n"
	if _, err := Parse(src); err == nil {
		t.Fatal("duplicate @query_field should fail validation")
	}
}

func TestAmbiguousShortName(t *testing.T) {
	src := `
header_type a_t { fields { price: 32; } }
header_type b_t { fields { price: 32; } }
header a_t a;
header b_t b;
@query_field(a.price)
@query_field(b.price)
`
	s := MustParse(src)
	if _, err := s.LookupField("price"); err == nil {
		t.Fatal("ambiguous short name should fail")
	}
	if _, err := s.LookupField("a.price"); err != nil {
		t.Fatalf("qualified lookup failed: %v", err)
	}
}

func TestEncodeDecodeSymbol(t *testing.T) {
	s := MustParse(itchSpec)
	stock, _ := s.LookupField("stock")
	v, err := EncodeSymbol(stock, "GOOGL")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	for _, c := range []byte("GOOGL   ") {
		want = want<<8 | uint64(c)
	}
	if v != want {
		t.Fatalf("EncodeSymbol = %#x, want %#x", v, want)
	}
	if got := DecodeSymbol(stock, v); got != "GOOGL" {
		t.Fatalf("DecodeSymbol = %q", got)
	}
	// Symbol ordering matches lexicographic order of padded strings, so
	// symbol range predicates behave sensibly.
	a, _ := EncodeSymbol(stock, "AAPL")
	m, _ := EncodeSymbol(stock, "MSFT")
	if !(a < v && v < m) {
		t.Fatalf("symbol order broken: AAPL=%#x GOOGL=%#x MSFT=%#x", a, v, m)
	}
}

func TestEncodeSymbolErrors(t *testing.T) {
	s := MustParse(itchSpec)
	stock, _ := s.LookupField("stock")
	if _, err := EncodeSymbol(stock, "WAYTOOLONGSYM"); err == nil {
		t.Fatal("overlong symbol should fail")
	}
	if _, err := EncodeSymbol(stock, "BAD\x01"); err == nil {
		t.Fatal("non-printable symbol should fail")
	}
}

func TestSetFieldOrder(t *testing.T) {
	s := MustParse(itchSpec)
	if err := s.SetFieldOrder("stock", "price"); err != nil {
		t.Fatal(err)
	}
	ordered := s.OrderedQueries()
	if ordered[0].Field != "stock" || ordered[1].Field != "price" || ordered[2].Field != "shares" {
		names := []string{ordered[0].Name, ordered[1].Name, ordered[2].Name}
		t.Fatalf("order = %v", names)
	}
	if err := s.SetFieldOrder("bogus"); err == nil {
		t.Fatal("unknown field in order should fail")
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	s := MustParse(itchSpec)
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, s.String())
	}
	if s2.String() != s.String() {
		t.Fatal("spec String() not stable")
	}
}

func TestProgrammaticSpec(t *testing.T) {
	s := &Spec{}
	s.AddQueryField("m.key", 32, MatchExact)
	s.AddQueryField("m.val", 16, MatchRange)
	s.AddCounter("hits", 50)
	s.AddRegister("reg0", 32)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	q, err := s.LookupField("key")
	if err != nil || q.Name != "m.key" {
		t.Fatalf("lookup: %v %+v", err, q)
	}
	if q.DomainMax() != (1<<32)-1 {
		t.Fatalf("DomainMax = %d", q.DomainMax())
	}
	v, err := s.LookupState("hits")
	if err != nil || v.WindowUS != 50 {
		t.Fatalf("state: %v %+v", err, v)
	}
	if _, err := s.LookupState("nope"); err == nil {
		t.Fatal("unknown state should fail")
	}
}

func TestCommentsInSpec(t *testing.T) {
	src := strings.ReplaceAll(itchSpec, "@query_counter", "// trailing comment\n@query_counter")
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}
