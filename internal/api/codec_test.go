package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rkranks/internal/core"
)

// TestAnswerCodecMatchesEncodingJSON fills random answers by reflection
// over every exported field, core.Stats included, and requires the
// codec's bytes to be json.Encoder's. A field added to a wire answer gets
// a random value here, so this test fails until the codec writes it too
// (and fails loudly for a field kind the filler has no generator for).
// Each encoding must also decode as encoding/json decodes it, through the
// one-pass path whenever the encoding holds no escape.
func TestAnswerCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := []byte("xy")
	for i := 0; i < 10000; i++ {
		var q QueryResponse
		fillRandom(t, rng, reflect.ValueOf(&q).Elem())
		got, err := AppendQueryResponse(prefix, &q)
		checkEncoding(t, &q, prefix, got, err)
		checkDecoding(t, got[len(prefix):], err, DecodeQueryResponse, (*parser).query)

		var b BatchResponse
		fillRandom(t, rng, reflect.ValueOf(&b).Elem())
		got, err = AppendBatchResponse(prefix, &b)
		checkEncoding(t, &b, prefix, got, err)
		checkDecoding(t, got[len(prefix):], err, DecodeBatchResponse, (*parser).batch)
	}
}

// checkEncoding compares an Append result with json.Encoder's output:
// equal bytes after the prefix, or both failing with the prefix intact.
func checkEncoding(t *testing.T, v any, prefix, got []byte, err error) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(v)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%+v: codec error %v, encoding/json error %v", v, err, werr)
	case err != nil && !bytes.Equal(got, prefix):
		t.Fatalf("%+v: failed append changed dst to %q", v, got)
	case err == nil && !bytes.Equal(got, append(append([]byte(nil), prefix...), want.Bytes()...)):
		t.Fatalf("%+v:\ncodec         %q\nencoding/json %q", v, got[len(prefix):], want.Bytes())
	}
}

// checkDecoding decodes an encoding both ways and requires the one-pass
// path to take it exactly when it holds no backslash and no null (a nil
// slice or stats): those are the only parts of the encoder's output the
// fast path leaves to encoding/json.
func checkDecoding[T any](t *testing.T, enc []byte, encErr error, decode func([]byte) (*T, error), fast func(*parser, *T) bool) {
	t.Helper()
	if encErr != nil {
		return
	}
	agree(t, enc, decode)
	p := parser{b: enc}
	var v T
	took := fast(&p, &v)
	if want := !bytes.Contains(enc, []byte{'\\'}) && !bytes.Contains(enc, []byte(`":null`)); took != want {
		t.Fatalf("one-pass path took=%v on %q, want %v", took, enc, want)
	}
}

// agree requires decode to match json.NewDecoder(...).Decode into a zero
// value: both fail with the same error, or both yield DeepEqual values.
func agree[T any](t *testing.T, b []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	got, err := decode(b)
	var want T
	werr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%q: codec error %v, encoding/json error %v", b, err, werr)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("%q: codec error %q, encoding/json error %q", b, err, werr)
	case err == nil && !reflect.DeepEqual(*got, want):
		t.Fatalf("%q:\ncodec         %#v\nencoding/json %#v", b, *got, want)
	}
}

// fillRandom sets every exported field under v to a random value: nil,
// empty or full slices, nil or set pointers, and strings, integers and
// floats drawn toward the edges encoding/json treats specially.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(t, rng, v.Field(i))
			}
		}
	case reflect.Pointer:
		if rng.Intn(4) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(t, rng, v.Elem())
		}
	case reflect.Slice:
		// Entry lists run past the decoder's 32-entry stack buffer; batch
		// results stay short.
		maxLen := 40
		if v.Type().Elem() == reflect.TypeOf(QueryResponse{}) {
			maxLen = 4
		}
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), 1+rng.Intn(maxLen), maxLen))
			for i := 0; i < v.Len(); i++ {
				fillRandom(t, rng, v.Index(i))
			}
		}
	case reflect.String:
		v.SetString(randomString(rng))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		shift := 64 - v.Type().Bits()
		switch rng.Intn(6) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(int64(rng.Intn(200) - 50))
		case 2:
			v.SetInt(math.MinInt64 >> shift)
		case 3:
			v.SetInt(math.MaxInt64 >> shift)
		default:
			v.SetInt(int64(rng.Uint64()) >> shift)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		shift := 64 - v.Type().Bits()
		switch rng.Intn(4) {
		case 0:
			v.SetUint(0)
		case 1:
			v.SetUint(math.MaxUint64 >> shift)
		default:
			v.SetUint(rng.Uint64() >> shift)
		}
	case reflect.Float64:
		v.SetFloat(randomFloat(rng))
	default:
		t.Fatalf("fillRandom: no generator for %s; teach it and the answer codec the new field", v.Type())
	}
}

// stringPieces are the parts random strings are built from: what
// encoding/json escapes (quotes, backslash, <>&, control characters,
// U+2028 and U+2029), invalid UTF-8, and plain and multi-byte text.
var stringPieces = []string{
	"indexed", "hublabel", "dynamic", "0123abcdef", "a", " ", "/", "~",
	`"`, `\`, "<", ">", "&", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"\u2028", "\u2029", "\u00e9", "\u4e2d", "\U0001F600", "\ufffd",
	"\xff", "\x80", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

// randomString joins up to five pieces or random bytes, and one time in
// eight up to forty, which reaches the 128 bytes of X-Request-Id a server
// echoes as request_id.
func randomString(rng *rand.Rand) string {
	n := rng.Intn(6)
	if rng.Intn(8) == 0 {
		n = rng.Intn(41)
	}
	var b []byte
	for ; n > 0; n-- {
		if rng.Intn(4) == 0 {
			b = append(b, byte(rng.Intn(256)))
		} else {
			b = append(b, stringPieces[rng.Intn(len(stringPieces))]...)
		}
	}
	return string(b)
}

// randomFloat spans encoding/json's two float formats, the cutoffs
// between them (1e-6 and 1e21), signed zeros, subnormals and, rarely,
// NaN and the infinities, which neither encoder accepts.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(9) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(1_000_000)) / 1000 // a server's elapsed_ms
	case 3:
		return math.Ldexp(rng.Float64(), -rng.Intn(1075)) // down to subnormals
	case 4:
		return -math.Ldexp(1+rng.Float64(), 60+rng.Intn(964)) // around and above 1e21
	case 5:
		edges := []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7, 1e20, math.MaxFloat64, math.SmallestNonzeroFloat64}
		return edges[rng.Intn(len(edges))]
	case 6:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// FuzzDecodeAnswers checks that for any bytes both answer decoders agree
// with json.NewDecoder(...).Decode into a zero value: the same error, or
// reflect.DeepEqual values (nil and empty entries, nil and set stats).
//
//	go test ./internal/api -run '^$' -fuzz '^FuzzDecodeAnswers$' -fuzztime 30s
func FuzzDecodeAnswers(f *testing.F) {
	st := &core.Stats{Refinements: 3, RefineSettled: 1 << 40, HeightWins: -2, LabelScanned: 9}
	q := QueryResponse{Query: 7, K: 2, Algorithm: AlgoIndexed, Entries: []Entry{{Node: 1, Rank: 1}, {Node: 4, Rank: 3}},
		Generation: 5, ElapsedMS: 0.125, Stats: st, RequestID: "4f2a"}
	empty := QueryResponse{Algorithm: "x<y>&\u2028\xff", Entries: []Entry{}, Partial: true, ElapsedMS: 1e-7}
	for _, v := range []any{&q, &empty, &QueryResponse{}, &BatchResponse{},
		&BatchResponse{Algorithm: AlgoDynamic, K: 2, Results: []QueryResponse{q, empty}, ElapsedMS: 3e21, RequestID: "b"},
		&BatchResponse{Results: []QueryResponse{}}} {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range []string{
		// Keys: case-folded (the Kelvin sign folds to k), escaped,
		// duplicated (a second stats merges into the first), unknown.
		`{"Query":1,"K":2,"ALGORITHM":"indexed"}`,
		"{\"\u212a\":3,\"entries\":[{\"NODE\":1,\"Rank\":2}]}",
		`{"quer\u0079":1,"algorithm":"dyn\u0061mic","request_id":"a\"b"}`,
		`{"stats":{"refinements":1},"stats":{"tree_settled":2}}`,
		`{"entries":[{"node":1,"rank":2}],"entries":[{"node":3}]}`,
		`{"k":1,"k":2}`,
		`{"results":[{"k":1}],"results":[{"query":2},{}]}`,
		`{"x":{"y":[1,{"z":null}],"w":"\u00e9"},"query":2,"stats":{"extra":[true]}}`,
		// Nulls, whitespace, and bytes after the document.
		`{"query":null,"entries":null,"stats":null,"algorithm":null,"partial":null}`,
		`{"results":null,"elapsed_ms":null}`,
		" \t\r\n{ \"k\" :\n1 , \"entries\" : [ ] , \"stats\" : { } } \n",
		`{"k":1}garbage`,
		`{"k":1 "query":2}`,
		`{"k":1,}`,
		`{"entries":[{"node":1}{"node":2}]}`,
		`{"entries":[{"node":1},]}`,
		`{"results":[{}{}]}`,
		`{"k":1}{"k":2}`,
		`{"k":1`,
		`null`,
		``,
		`[]`,
		// Numbers: leading zeros, fractions, exponents, signs, overflow.
		`{"k":01}`,
		`{"elapsed_ms":01.5}`,
		`{"k":1.0}`,
		`{"k":1e2,"elapsed_ms":1E+2}`,
		`{"query":-0,"elapsed_ms":-0.0}`,
		`{"query":2147483648}`,
		`{"query":-2147483648,"k":-9223372036854775808}`,
		`{"k":9223372036854775808}`,
		`{"generation":18446744073709551615}`,
		`{"generation":18446744073709551616}`,
		`{"generation":-1}`,
		`{"elapsed_ms":1e400}`,
		`{"elapsed_ms":1e-400}`,
		`{"elapsed_ms":-}`,
		`{"entries":[{"node":1,"rank":99999999999}]}`,
		`{"stats":{"refine_settled":-9223372036854775809}}`,
		// Strings: controls, invalid UTF-8, wrong types.
		"{\"request_id\":\"a\x01b\"}",
		"{\"request_id\":\"\xff\xfe\",\"algorithm\":\"\xe4\xb8\xad\"}",
		`{"request_id":1,"algorithm":true}`,
		`{"partial":"true","entries":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		agree(t, b, DecodeQueryResponse)
		agree(t, b, DecodeBatchResponse)
	})
}

// BenchmarkAnswerCodec compares the codec with encoding/json on a k=10
// answer, the shape of a serve-hot request.
func BenchmarkAnswerCodec(b *testing.B) {
	r := &QueryResponse{Query: 1234, K: 10, Algorithm: AlgoIndexed, ElapsedMS: 0.042,
		Stats:     &core.Stats{Refinements: 17, RefineSettled: 5210, TreeSettled: 340, PrunedByBound: 120, HeightWins: 80, CountWins: 30, ParentWins: 10},
		RequestID: "0123456789abcdef0123456789abcdef"}
	for i := 0; i < 10; i++ {
		r.Entries = append(r.Entries, Entry{Node: int32(1000 + 37*i), Rank: int32(3 + i)})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(r)
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst, _ = AppendQueryResponse(dst[:0], r)
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v QueryResponse
			_ = json.NewDecoder(bytes.NewReader(enc)).Decode(&v)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = DecodeQueryResponse(enc)
		}
	})
}
