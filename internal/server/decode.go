package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeRequest parses one /infer request body in a single pass. It
// accepts exactly the bodies encoding/json accepts for InferRequest
// with DisallowUnknownFields followed by nothing but whitespace, and
// produces the same values:
//
//   - each number token is scanned once, checking the strict JSON
//     grammar while collecting its mantissa and exponent, and gets the
//     value of the call encoding/json makes for the field type,
//     strconv.ParseFloat(tok, 32) for float_data and strconv.ParseInt(tok,
//     10, 64) for shape and int_data, bit for bit: a float from one
//     correctly rounded float64 operation where that cannot differ from
//     strconv (num.float32), an integer of up to 18 digits from the
//     mantissa, and every other token from that strconv call itself;
//   - names are unescaped like encoding/json does (a lone surrogate or
//     invalid UTF-8 becomes U+FFFD), and struct field names match
//     case-folded (bytes.EqualFold); an unknown field is refused;
//   - a duplicate key decodes over the earlier value as encoding/json
//     does: a slice is refilled in place, the inputs map is merged, a
//     tensor or dtype is replaced; null resets a slice, the map or a
//     tensor and leaves a dtype or an array element as it was.
//
// When shape precedes a non-empty data field the data slice is
// allocated once, at min(∏shape, maxWireElems) elements, drawn from one
// request-wide budget of len(body)/2 elements: every element needs a
// digit and a separator, so the slices of a legitimate body always fit,
// and hostile shapes — on one tensor or on many — cannot make the
// presized capacity outgrow the body. Every error wraps ErrBadRequest.
// DecodeInputs validates the result.
func DecodeRequest(body []byte) (*InferRequest, error) {
	d := decoder{b: body, presized: len(body) / 2}
	return d.decode()
}

// decode reads the whole body as one request.
func (d *decoder) decode() (*InferRequest, error) {
	var req InferRequest
	d.ws()
	if err := d.request(&req); err != nil {
		return nil, err
	}
	d.ws()
	if d.off != len(d.b) {
		return nil, d.errorf("trailing data after request object")
	}
	return &req, nil
}

// decoder is a cursor over one request body. presized is the number of
// elements presize may still allocate for this request; slow counts the
// numbers handed to strconv.
type decoder struct {
	b        []byte
	off      int
	presized int
	slow     int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: decode body at offset %d: %s", ErrBadRequest, d.off, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.off < len(d.b) {
		switch d.b[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.off < len(d.b) {
		return d.b[d.off]
	}
	return 0
}

// literal consumes the keyword lit (null, true or false).
func (d *decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.b[d.off:], []byte(lit)) {
		return d.errorf("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// object walks one JSON object, calling field with each unescaped key
// and the cursor on its value; field must consume the value.
func (d *decoder) object(field func(key []byte) error) error {
	if d.peek() != '{' {
		return d.errorf("expected object")
	}
	d.off++
	d.ws()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errorf("expected object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.errorf("expected ':' after object key")
		}
		d.off++
		d.ws()
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case '}':
			d.off++
			return nil
		default:
			return d.errorf("expected ',' or '}' in object")
		}
	}
}

// request decodes the top-level value into req: an object, or null,
// which leaves req empty.
func (d *decoder) request(req *InferRequest) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	return d.object(func(key []byte) error {
		if !bytes.EqualFold(key, []byte("inputs")) {
			return d.errorf("unknown field %q", key)
		}
		if d.peek() == 'n' {
			req.Inputs = nil
			return d.literal("null")
		}
		if req.Inputs == nil {
			req.Inputs = make(map[string]*WireTensor)
		}
		return d.object(func(name []byte) error {
			if d.peek() == 'n' {
				req.Inputs[string(name)] = nil
				return d.literal("null")
			}
			w := new(WireTensor)
			if err := d.tensor(w); err != nil {
				return err
			}
			req.Inputs[string(name)] = w
			return nil
		})
	})
}

// tensor decodes one WireTensor object into w.
func (d *decoder) tensor(w *WireTensor) error {
	return d.object(func(key []byte) error {
		null := d.peek() == 'n'
		if null {
			if err := d.literal("null"); err != nil {
				return err
			}
		}
		var err error
		switch {
		case bytes.EqualFold(key, []byte("dtype")):
			if !null {
				var s []byte
				if d.peek() != '"' {
					return d.errorf("dtype is not a string")
				}
				s, err = d.str()
				w.DType = string(s)
			}
		case bytes.EqualFold(key, []byte("shape")):
			if null {
				w.Shape = nil
			} else {
				w.Shape, err = array(d, w.Shape, nil, d.int64)
			}
		case bytes.EqualFold(key, []byte("float_data")):
			if null {
				w.F = nil
			} else {
				w.F, err = array(d, w.F, w.Shape, d.float32)
			}
		case bytes.EqualFold(key, []byte("int_data")):
			if null {
				w.I = nil
			} else {
				w.I, err = array(d, w.I, w.Shape, d.int64)
			}
		case bytes.EqualFold(key, []byte("bool_data")):
			if null {
				w.B = nil
			} else {
				w.B, err = array(d, w.B, w.Shape, d.bool)
			}
		default:
			return d.errorf("unknown field %q", key)
		}
		return err
	})
}

// presize gives an empty data slice the capacity the shape implies,
// capped at maxWireElems and at what is left of the request's budget,
// which it spends. A slice that already holds capacity — a duplicate
// key — is refilled in place instead.
func presize[T any](d *decoder, s []T, shape []int64) []T {
	if cap(s) > 0 || len(shape) == 0 {
		return s
	}
	limit := int64(min(maxWireElems, d.presized))
	n := int64(1)
	for _, dim := range shape {
		if dim <= 0 {
			return s
		}
		if n > limit/dim {
			n = limit
			break
		}
		n *= dim
	}
	d.presized -= int(n)
	return make([]T, 0, n)
}

// array decodes a JSON array into s the way encoding/json fills an
// existing slice: element i overwrites s[i], growing s as needed; a null
// element leaves s[i] as it was (zero in fresh capacity); the result is
// cut to the element count, and [] yields an empty non-nil slice. A
// non-empty array is first presized from shape (nil: not presized).
func array[T any](d *decoder, s []T, shape []int64, elem func(*T) error) ([]T, error) {
	if d.peek() != '[' {
		return nil, d.errorf("expected array")
	}
	d.off++
	d.ws()
	if d.peek() == ']' {
		d.off++
		return []T{}, nil
	}
	s = presize(d, s, shape)
	for i := 0; ; i++ {
		if i == cap(s) {
			var zero T
			s = append(s[:i], zero)
		} else if i >= len(s) {
			s = s[:i+1]
		}
		if d.peek() == 'n' {
			if err := d.literal("null"); err != nil {
				return nil, err
			}
		} else if err := elem(&s[i]); err != nil {
			return nil, err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case ']':
			d.off++
			return s[:i+1], nil
		default:
			return nil, d.errorf("expected ',' or ']' in array")
		}
	}
}

func (d *decoder) float32(p *float32) error {
	start := d.off
	n, err := d.number()
	if err != nil {
		return err
	}
	if f, ok := n.float32(); ok {
		if d.b[start] == '-' {
			f = -f
		}
		*p = f
		return nil
	}
	d.slow++
	tok := d.b[start:d.off]
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		return d.errorf("float_data element %s: %v", tok, err)
	}
	*p = float32(f)
	return nil
}

func (d *decoder) int64(p *int64) error {
	start := d.off
	n, err := d.number()
	if err != nil {
		return err
	}
	// Up to 18 digits the mantissa is the whole integer, below 2^63.
	if n.integer && n.digits <= 18 {
		*p = int64(n.mant)
		if d.b[start] == '-' {
			*p = -*p
		}
		return nil
	}
	d.slow++
	tok := d.b[start:d.off]
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return d.errorf("integer element %s: %v", tok, err)
	}
	*p = v
	return nil
}

func (d *decoder) bool(p *bool) error {
	switch d.peek() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.errorf("bool_data element is not a bool")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// mantDigits is how many digits num.mant holds exactly: 10^19 - 1
// still fits a uint64. A longer token's mant wraps, and no conversion
// reads it.
const mantDigits = 19

// num is what number collects while it scans one token: the token's
// magnitude is mant·10^exp when digits <= mantDigits. It has at most
// four fields, so the compiler keeps it in registers; the sign is the
// token's first byte.
type num struct {
	mant    uint64 // the significant digits, as an integer
	exp     int    // decimal exponent of the last digit
	digits  int    // significant digits in the token, leading zeros not counted
	integer bool   // no fraction and no exponent
}

// float32 converts n's magnitude in one correctly rounded float64
// operation, as Clinger's fast path does: mant <= 2^53 and 10^|exp| for
// |exp| <= 22 are exact float64s, so y = mant·10^exp or mant/10^-exp is
// the decimal rounded once to float64. Every float32 and every midpoint
// between two adjacent ones is a float64, and rounding is monotone, so
// y is on the same side of each midpoint as the decimal unless y is a
// midpoint itself. float32(y) is then the decimal's correctly rounded
// float32, which is strconv.ParseFloat(tok, 32)'s value, whenever y's
// low 29 mantissa bits, the ones float32 drops, are not exactly one
// half. The bounds keep a nonzero y in [1e-22, 2^53·1e22], inside
// float32's normal range, so no subnormal or overflow reaches the
// conversion, and a zero mant gives 0. It reports false for every other
// token.
func (n num) float32() (float32, bool) {
	if n.digits > mantDigits || n.mant > 1<<53 || n.exp < -22 || n.exp > 22 {
		return 0, false
	}
	y := float64(n.mant)
	if n.exp < 0 {
		y /= math.Pow10(-n.exp)
	} else {
		y *= math.Pow10(n.exp)
	}
	if math.Float64bits(y)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	return float32(y), true
}

// number consumes one token of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its
// mantissa and exponent, in one pass over its bytes. It refuses
// what strconv would otherwise take: a leading +, leading zeros, .5,
// 1., inf, nan, hex and underscores.
func (d *decoder) number() (num, error) {
	b, i := d.b, d.off
	var mant uint64
	exp, digits := 0, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		start := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		digits = i - start
	default:
		return num{}, d.errorf("expected number")
	}
	integer := true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		start := i
		if digits == 0 { // 0.: the zeros that follow are not significant
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == start {
			return num{}, d.errorf("no digits after decimal point")
		}
		exp = start - i
		digits += i - sig
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			// Saturating at strconv's bound keeps exp what strconv's
			// readFloat computes, even where a saturated exponent meets
			// thousands of leading zeros.
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return num{}, d.errorf("no digits in exponent")
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.off = i
	return num{mant: mant, exp: exp, digits: digits, integer: integer}, nil
}

// str consumes one string token (the cursor is on its opening quote)
// and returns its unescaped bytes. A plain ASCII string is returned as
// a subslice of the body.
func (d *decoder) str() ([]byte, error) {
	d.off++
	start := d.off
	for ; d.off < len(d.b); d.off++ {
		switch c := d.b[d.off]; {
		case c == '"':
			d.off++
			return d.b[start : d.off-1], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.strEscaped(append([]byte(nil), d.b[start:d.off]...))
		}
	}
	return nil, d.errorf("unterminated string")
}

// strEscaped finishes a string from the cursor, appending its
// unescaped bytes to out, with encoding/json's rules: control bytes are
// refused, invalid UTF-8 and unpaired surrogates become U+FFFD.
func (d *decoder) strEscaped(out []byte) ([]byte, error) {
	for d.off < len(d.b) {
		switch c := d.b[d.off]; {
		case c == '"':
			d.off++
			return out, nil
		case c < ' ':
			return nil, d.errorf("control character in string")
		case c == '\\':
			if d.off+1 >= len(d.b) {
				return nil, d.errorf("unterminated string")
			}
			esc := d.b[d.off+1]
			if esc == 'u' {
				r, ok := hex4(d.b[d.off+2:])
				if !ok {
					return nil, d.errorf("invalid \\u escape")
				}
				d.off += 6
				if utf16.IsSurrogate(r) {
					r = unicode.ReplacementChar
					if d.off+1 < len(d.b) && d.b[d.off] == '\\' && d.b[d.off+1] == 'u' {
						if r2, ok := hex4(d.b[d.off+2:]); ok {
							if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
								r = pair
								d.off += 6
							}
						}
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			}
			switch esc {
			case '"', '\\', '/':
			case 'b':
				esc = '\b'
			case 'f':
				esc = '\f'
			case 'n':
				esc = '\n'
			case 'r':
				esc = '\r'
			case 't':
				esc = '\t'
			default:
				return nil, d.errorf("invalid escape \\%c", esc)
			}
			out = append(out, esc)
			d.off += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.off++
		default:
			r, n := utf8.DecodeRune(d.b[d.off:])
			out = utf8.AppendRune(out, r)
			d.off += n
		}
	}
	return nil, d.errorf("unterminated string")
}

// hex4 parses the four hex digits at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
