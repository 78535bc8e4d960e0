package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"rkranks/internal/core"
)

// The answer codec. QueryResponse and BatchResponse are the documents a
// server writes and a client reads on every request, so they skip
// reflection both ways:
//
//   - AppendQueryResponse and AppendBatchResponse write exactly the bytes
//     json.NewEncoder(w).Encode writes: fields in declaration order,
//     omitempty honoured, HTML-safe string escapes, encoding/json's float
//     format, and the trailing newline.
//   - DecodeQueryResponse and DecodeBatchResponse parse that shape in one
//     pass and hand every other input to json.NewDecoder(...).Decode, so
//     their result always equals encoding/json's. The one-pass path takes
//     only what it can decode exactly as encoding/json would: each known
//     key once, spelled exactly, strings without escapes, and numbers as
//     the encoder spells them. Anything else (a case-folded, escaped,
//     duplicate or unknown key, an escape, a null, an exponent in an
//     integer, an out-of-range number) goes to encoding/json.

// AppendQueryResponse appends the JSON encoding of r and a newline to
// dst. It fails, leaving dst as it was, only when ElapsedMS is NaN or
// infinite, which JSON cannot carry.
func AppendQueryResponse(dst []byte, r *QueryResponse) ([]byte, error) {
	b, err := appendQuery(dst, r)
	if err != nil {
		return dst, err
	}
	return append(b, '\n'), nil
}

// AppendBatchResponse is AppendQueryResponse for a batch answer; it fails
// when the batch's or any result's ElapsedMS is not finite.
func AppendBatchResponse(dst []byte, r *BatchResponse) ([]byte, error) {
	b := append(dst, `{"algorithm":`...)
	b = appendString(b, string(r.Algorithm))
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendQuery(b, &r.Results[i]); err != nil {
				return dst, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsed_ms":`...)
	b, err := appendFloat(b, r.ElapsedMS)
	if err != nil {
		return dst, err
	}
	if r.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = appendString(b, r.RequestID)
	}
	return append(b, "}\n"...), nil
}

func appendQuery(b []byte, r *QueryResponse) ([]byte, error) {
	b = append(b, `{"query":`...)
	b = strconv.AppendInt(b, int64(r.Query), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"algorithm":`...)
	b = appendString(b, string(r.Algorithm))
	b = append(b, `,"entries":`...)
	if r.Entries == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range r.Entries {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"node":`...)
			b = strconv.AppendInt(b, int64(e.Node), 10)
			b = append(b, `,"rank":`...)
			b = strconv.AppendInt(b, int64(e.Rank), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	if r.Generation != 0 {
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, r.Generation, 10)
	}
	b = append(b, `,"elapsed_ms":`...)
	b, err := appendFloat(b, r.ElapsedMS)
	if err != nil {
		return b, err
	}
	if r.Stats != nil {
		for i, f := range statsFields {
			if i == 0 {
				b = append(b, `,"stats":{"`...)
			} else {
				b = append(b, `,"`...)
			}
			b = append(b, f.key...)
			b = append(b, `":`...)
			switch p := f.ptr(r.Stats).(type) {
			case *int:
				b = strconv.AppendInt(b, int64(*p), 10)
			case *int64:
				b = strconv.AppendInt(b, *p, 10)
			}
		}
		b = append(b, '}')
	}
	if r.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = appendString(b, r.RequestID)
	}
	return append(b, '}'), nil
}

// statsFields lists core.Stats's wire fields in declaration order, the
// order encoding/json writes them in. ptr returns an *int or an *int64.
var statsFields = [...]struct {
	key string
	ptr func(*core.Stats) any
}{
	{"refinements", func(s *core.Stats) any { return &s.Refinements }},
	{"refine_settled", func(s *core.Stats) any { return &s.RefineSettled }},
	{"refine_aborted", func(s *core.Stats) any { return &s.RefineAborted }},
	{"tree_settled", func(s *core.Stats) any { return &s.TreeSettled }},
	{"pruned_by_bound", func(s *core.Stats) any { return &s.PrunedByBound }},
	{"index_hits", func(s *core.Stats) any { return &s.IndexHits }},
	{"seeded_from_index", func(s *core.Stats) any { return &s.SeededFromIndex }},
	{"height_wins", func(s *core.Stats) any { return &s.HeightWins }},
	{"count_wins", func(s *core.Stats) any { return &s.CountWins }},
	{"parent_wins", func(s *core.Stats) any { return &s.ParentWins }},
	{"batch_shared_traversals", func(s *core.Stats) any { return &s.SharedTraversals }},
	{"label_pruned", func(s *core.Stats) any { return &s.LabelPruned }},
	{"label_fallbacks", func(s *core.Stats) any { return &s.LabelFallbacks }},
	{"label_entries_scanned", func(s *core.Stats) any { return &s.LabelScanned }},
}

// appendFloat writes f as encoding/json does: like strconv's shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 up, with the
// exponent's leading zero dropped.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("api: unsupported value: %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString writes s as a JSON string. A string that needs no escape
// goes out as it is; any other takes encoding/json's escapes (<, > and &
// too, invalid UTF-8 as \ufffd, U+2028 and U+2029).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeQueryResponse decodes a /v1/query answer. The result and the
// error are always those of json.NewDecoder(bytes.NewReader(b)).Decode
// into a zero QueryResponse: like it, the decoder reads the first JSON
// value and ignores what follows.
func DecodeQueryResponse(b []byte) (*QueryResponse, error) {
	r := new(QueryResponse)
	p := parser{b: b}
	return fallback(b, r, p.query(r))
}

// DecodeBatchResponse decodes a /v1/batch answer, with
// DecodeQueryResponse's guarantee.
func DecodeBatchResponse(b []byte) (*BatchResponse, error) {
	r := new(BatchResponse)
	p := parser{b: b}
	return fallback(b, r, p.batch(r))
}

// fallback returns v when the one-pass path took b, and otherwise
// decodes b into v, zeroed, with encoding/json.
func fallback[T any](b []byte, v *T, took bool) (*T, error) {
	if took {
		return v, nil
	}
	*v = *new(T)
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return nil, err
	}
	return v, nil
}

// parser is the one-pass path of the answer decoders. Each method
// reports false when the input leaves the shape it decodes exactly; the
// caller then discards the partial value and falls back to encoding/json.
type parser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	i := p.i
	for i < len(p.b) && (p.b[i] == ' ' || p.b[i] == '\t' || p.b[i] == '\n' || p.b[i] == '\r') {
		i++
	}
	p.i = i
}

// next consumes c, after whitespace.
func (p *parser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes the literal word lit, after whitespace.
func (p *parser) literal(lit string) bool {
	p.ws()
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// object reads an object. For each member it calls value with the key,
// positioned at the value; value reads the value and returns the key's
// bit, or 0 for a key it does not know. Each key may appear once.
func (p *parser) object(value func(key []byte) (bit uint32, ok bool)) bool {
	if !p.next('{') {
		return false
	}
	var seen uint32
	for first := true; !p.next('}'); first = false {
		if !first && !p.next(',') {
			return false
		}
		key, ok := p.string()
		if !ok || !p.next(':') {
			return false
		}
		bit, ok := value(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return true
}

// string reads a string holding no escape, control character or invalid
// UTF-8, which encoding/json decodes to its bytes unchanged.
func (p *parser) string() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	b, start := p.b, p.i
	ascii := true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return b[start:i], ascii || utf8.Valid(b[start:i])
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// setString reads a string into *dst.
func (p *parser) setString(dst *string) bool {
	s, ok := p.string()
	*dst = string(s)
	return ok
}

// setInt reads an integer that fits a T into *dst, with no fraction or
// exponent.
func setInt[T int | int32 | int64](p *parser, dst *T) bool {
	p.ws()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	u, ok := p.digits()
	v := int64(u)
	if neg {
		v = -v
	}
	*dst = T(v)
	// A magnitude past the int64 range, or a value past T's, does not
	// survive the conversions; 1<<63 does when negative.
	return ok && (v < 0) == (neg && u != 0) && int64(*dst) == v
}

// setUint reads a non-negative integer into *dst, with no sign, fraction
// or exponent.
func (p *parser) setUint(dst *uint64) bool {
	p.ws()
	var ok bool
	*dst, ok = p.digits()
	return ok
}

// digits reads the digits of a JSON integer that fits in a uint64.
func (p *parser) digits() (uint64, bool) {
	b, start := p.b, p.i
	i := start
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = 10*u + d
	}
	p.i = i
	// JSON forbids a leading zero before another digit.
	return u, i > start && (b[start] != '0' || i-start == 1)
}

// setFloat reads a number into *dst. It takes the number only in the
// spelling appendFloat writes for its value, which encoding/json reads
// back to that value; any other spelling goes to encoding/json.
func (p *parser) setFloat(dst *float64) bool {
	p.ws()
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	tok := p.b[start:p.i]
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	var buf [32]byte
	enc, encErr := appendFloat(buf[:0], f)
	return err == nil && encErr == nil && string(enc) == string(tok)
}

// setBool reads true or false into *dst.
func (p *parser) setBool(dst *bool) bool {
	*dst = p.literal("true")
	return *dst || p.literal("false")
}

// setAlgorithm reads an algorithm name into *dst, sharing the constants'
// storage for the known ones.
func (p *parser) setAlgorithm(dst *Algorithm) bool {
	s, ok := p.string()
	for _, a := range [...]Algorithm{AlgoIndexed, AlgoHubLabel, AlgoDynamic, AlgoStatic, AlgoNaive} {
		if string(s) == string(a) {
			*dst = a
			return ok
		}
	}
	*dst = Algorithm(s)
	return ok
}

// query reads a QueryResponse object.
func (p *parser) query(r *QueryResponse) bool {
	return p.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "query":
			return 1 << 0, setInt(p, &r.Query)
		case "k":
			return 1 << 1, setInt(p, &r.K)
		case "algorithm":
			return 1 << 2, p.setAlgorithm(&r.Algorithm)
		case "entries":
			return 1 << 3, p.setEntries(&r.Entries)
		case "partial":
			return 1 << 4, p.setBool(&r.Partial)
		case "generation":
			return 1 << 5, p.setUint(&r.Generation)
		case "elapsed_ms":
			return 1 << 6, p.setFloat(&r.ElapsedMS)
		case "stats":
			return 1 << 7, p.setStats(&r.Stats)
		case "request_id":
			return 1 << 8, p.setString(&r.RequestID)
		}
		return 0, false
	})
}

// batch reads a BatchResponse object.
func (p *parser) batch(r *BatchResponse) bool {
	return p.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "algorithm":
			return 1 << 0, p.setAlgorithm(&r.Algorithm)
		case "k":
			return 1 << 1, setInt(p, &r.K)
		case "results":
			return 1 << 2, p.setResults(&r.Results)
		case "elapsed_ms":
			return 1 << 3, p.setFloat(&r.ElapsedMS)
		case "request_id":
			return 1 << 4, p.setString(&r.RequestID)
		}
		return 0, false
	})
}

// array reads an array, calling elem once per element.
func (p *parser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	for first := true; !p.next(']'); first = false {
		if (!first && !p.next(',')) || !elem() {
			return false
		}
	}
	return true
}

// setEntries reads an entry array into *dst. Up to 32 entries collect on
// the stack, so a k <= 32 answer costs one exact-size allocation.
func (p *parser) setEntries(dst *[]Entry) bool {
	var stack [32]Entry
	es := stack[:0]
	ok := p.array(func() bool {
		es = append(es, Entry{})
		return p.object(func(key []byte) (uint32, bool) {
			switch string(key) {
			case "node":
				return 1 << 0, setInt(p, &es[len(es)-1].Node)
			case "rank":
				return 1 << 1, setInt(p, &es[len(es)-1].Rank)
			}
			return 0, false
		})
	})
	*dst = append(make([]Entry, 0, len(es)), es...)
	return ok
}

// setResults reads a batch's result array into *dst.
func (p *parser) setResults(dst *[]QueryResponse) bool {
	*dst = []QueryResponse{}
	return p.array(func() bool {
		*dst = append(*dst, QueryResponse{})
		return p.query(&(*dst)[len(*dst)-1])
	})
}

// setStats reads a Stats object into *dst.
func (p *parser) setStats(dst **core.Stats) bool {
	s := new(core.Stats)
	*dst = s
	return p.object(func(key []byte) (uint32, bool) {
		for i, f := range statsFields {
			if string(key) != f.key {
				continue
			}
			switch v := f.ptr(s).(type) {
			case *int:
				return 1 << i, setInt(p, v)
			case *int64:
				return 1 << i, setInt(p, v)
			}
		}
		return 0, false
	})
}
