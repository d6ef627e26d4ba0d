package obs

import (
	"strconv"
	"unicode/utf8"
)

// The trace files are written with hand-written appenders instead of
// encoding/json's reflection, which cost a traced run more CPU than the
// simulation it traced. Their output is byte for byte what encoding/json
// writes for the same values (FuzzAppendSpan holds appendSpan to
// json.Marshal).

// appendSpan appends s as encoding/json encodes a Span: its fields in
// declaration order, omitempty ones left out when zero.
func appendSpan(b []byte, s *Span) []byte {
	b = append(b, `{"trace":`...)
	b = strconv.AppendUint(b, s.Trace, 10)
	b = append(b, `,"id":`...)
	b = strconv.AppendUint(b, s.ID, 10)
	if s.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.Parent, 10)
	}
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(s.Node), 10)
	b = append(b, `,"stage":`...)
	b = appendJSONString(b, s.Stage)
	if s.Obj != 0 {
		b = append(b, `,"obj":`...)
		b = strconv.AppendUint(b, s.Obj, 10)
	}
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, s.Start, 10)
	b = append(b, `,"end_us":`...)
	b = strconv.AppendInt(b, s.End, 10)
	if s.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, s.Detail)
	}
	if s.Err != "" {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, s.Err)
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string the way encoding/json writes
// it with HTML escaping on (json.Marshal, a default json.Encoder): '"' and
// '\\' backslash-escaped; \b, \f, \n, \r and \t by their short escapes;
// other control bytes, '<', '>' and '&' as \u00XX; U+2028 and U+2029 as
// \u2028 and \u2029; every byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
