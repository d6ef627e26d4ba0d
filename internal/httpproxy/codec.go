package httpproxy

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
)

// The farm's HTTP/1.1 head codec: what server.go parses requests with and
// client.go writes requests and parses replies with, on every farm hop.
// net/http's ReadRequest, ReadResponse and Request.Write spend about 35
// allocations on one farm exchange, through textproto's line reader, a
// fresh header map per message, a string per header value and url.Parse.
// This codec reads a whole head into a reused buffer, turns it into one
// string, and cuts the start line and every header key and value out of
// that string; a key already in canonical form (every X-Adc-* key the farm
// sends) is used as it is, and each key's first value slice is cut from a
// reused backing array.
//
// It is a strict subset of net/http's reading: every head it accepts,
// net/http accepts and reads the same way (FuzzRequestHead and
// FuzzResponseHead hold it to that), and it refuses what net/http only
// tolerates: a line not ended by CRLF, a folded or space-led header line,
// a space in a header name, several Content-Length fields, a
// Transfer-Encoding beside a Content-Length or on HTTP/1.0, trailers, a
// CONNECT request, a reply that is not HTTP/1.x, and a 1xx reply (nothing
// in the farm sends Expect: 100-continue). A body is Content-Length
// framed, chunked (decoded by net/http/httputil's chunked reader; no farm
// hop sends one) or, on a reply, delimited by the connection's close.

// Errors the codec reports for a head or body it refuses.
var (
	errBadHead    = errors.New("httpproxy: malformed HTTP head")
	errBigHead    = errors.New("httpproxy: HTTP head too large")
	errBadFraming = errors.New("httpproxy: unsupported HTTP body framing")
	errTrailer    = errors.New("httpproxy: HTTP trailers are not supported")
)

// readHead reads one message head, through the empty line that ends it,
// into buf[:0] and returns it. A read error is returned as it is (a
// head cut short by the connection's end reads as io.EOF); a line not
// ended by CRLF is errBadHead, and a head over max bytes errBigHead.
func readHead(br *bufio.Reader, buf []byte, max int) ([]byte, error) {
	buf = buf[:0]
	line := 0 // where the current line starts in buf
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > max {
			return buf, errBigHead
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return buf, err
		}
		n := len(buf) - line
		if n < 2 || buf[len(buf)-2] != '\r' {
			return buf, errBadHead
		}
		if n == 2 {
			return buf, nil
		}
		line = len(buf)
	}
}

// maxKeptHead is the largest head buffer a connection keeps for its next
// head; a larger one, grown by one long head, is dropped.
const maxKeptHead = 64 << 10

// keepHead returns head if it is small enough to keep for the next head.
func keepHead(head []byte) []byte {
	if cap(head) > maxKeptHead {
		return nil
	}
	return head
}

// parseHead splits a head's text (readHead's bytes as one string) into its
// start line and header fields, adding the fields to h. vals backs the
// value slices: a key's first value takes one element of it, so only a
// repeated key allocates (and so does a key not in canonical form).
func parseHead(text string, h http.Header, vals []string) (start string, err error) {
	i := strings.IndexByte(text, '\n')
	start, rest := text[:i-1], text[i+1:]
	for {
		i = strings.IndexByte(rest, '\n')
		if i < 0 { // text is a lone CRLF: no start line
			return "", errBadHead
		}
		line := rest[:i-1]
		rest = rest[i+1:]
		if line == "" {
			return start, nil
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return "", errBadHead
		}
		key, v := line[:colon], trimOWS(line[colon+1:])
		if !isToken(key) || !validValue(v) {
			return "", errBadHead
		}
		if !isCanonical(key) {
			key = http.CanonicalHeaderKey(key)
		}
		switch vv, dup := h[key]; {
		case dup:
			h[key] = append(vv, v)
		case len(vals) > 0:
			vals[0] = v
			h[key], vals = vals[:1:1], vals[1:]
		default:
			h[key] = []string{v}
		}
	}
}

// headLines is how many header lines a head's text can hold: a bound for
// parseHead's vals.
func headLines(text string) int { return strings.Count(text, "\n") }

// parseRequest parses a request head's text into req, whose URL points at
// u, with vals backing the header's values (see parseHead). req.Header
// must be an empty map. It leaves req.Body to the caller, with body set
// to the body's framing.
func parseRequest(text string, req *http.Request, u *url.URL, vals []string, body *bodyReader) error {
	start, err := parseHead(text, req.Header, vals)
	if err != nil {
		return err
	}
	method, rest, ok1 := strings.Cut(start, " ")
	uri, proto, ok2 := strings.Cut(rest, " ")
	major, minor, ok3 := parseVersion(proto)
	if !ok1 || !ok2 || !ok3 || !isToken(method) || uri == "" || method == http.MethodConnect {
		return errBadHead
	}
	if err := parseRequestURI(uri, u); err != nil {
		return err
	}
	h := req.Header
	req.Method, req.RequestURI, req.URL = method, uri, u
	req.Proto, req.ProtoMajor, req.ProtoMinor = proto, major, minor
	hosts := h["Host"]
	if len(hosts) > 1 {
		return errBadHead
	}
	req.Host = u.Host
	if req.Host == "" && len(hosts) == 1 {
		req.Host = hosts[0]
	}
	if pragma := h["Pragma"]; len(pragma) > 0 && pragma[0] == "no-cache" && h["Cache-Control"] == nil {
		h["Cache-Control"] = []string{"no-cache"}
	}
	req.Close = shouldClose(major, minor, h, false)
	length, chunked, err := framing(h, major, minor)
	if err != nil {
		return err
	}
	switch {
	case chunked:
		req.ContentLength, req.TransferEncoding = -1, []string{"chunked"}
	case length < 0:
		length = 0 // a request without framing has no body
	}
	if !chunked {
		req.ContentLength = length
	}
	// net/http's reading of HTTP/2's connection preface.
	if method == "PRI" && len(h) == 0 && u.Path == "*" && proto == "HTTP/2.0" {
		req.ContentLength, req.Close = -1, true
	}
	delete(h, "Host")
	body.reset(length, chunked)
	return nil
}

// parseResponse parses a reply head's text, the answer to a request with
// the given method, into resp, with vals backing the header's values (see
// parseHead), and sets body to the body's framing. resp.Header must be an
// empty map.
func parseResponse(text, method string, resp *http.Response, vals []string, body *bodyReader) error {
	start, err := parseHead(text, resp.Header, vals)
	if err != nil {
		return err
	}
	proto, status, _ := strings.Cut(start, " ")
	major, minor, ok := parseVersion(proto)
	if !ok || major != 1 || len(status) < 3 || len(status) > 3 && status[3] != ' ' || !validValue(status) {
		return errBadHead
	}
	code := 0
	for _, c := range []byte(status[:3]) {
		if c < '0' || c > '9' {
			return errBadHead
		}
		code = 10*code + int(c-'0')
	}
	if code < 200 {
		return errBadHead
	}
	h := resp.Header
	resp.Status, resp.StatusCode = status, code
	resp.Proto, resp.ProtoMajor, resp.ProtoMinor = proto, major, minor
	resp.Close = shouldClose(major, minor, h, true)
	length, chunked, err := framing(h, major, minor)
	if err != nil {
		return err
	}
	bodyless := method == http.MethodHead || code == http.StatusNoContent || code == http.StatusNotModified
	switch {
	case bodyless && chunked:
		return errBadFraming
	case method == http.MethodHead:
		resp.ContentLength = length // what a GET would have carried
		length = 0
	case bodyless:
		length = 0
		resp.ContentLength = 0
	case chunked:
		resp.ContentLength, resp.TransferEncoding = -1, []string{"chunked"}
	default:
		resp.ContentLength = length
		if length < 0 {
			resp.Close = true // the body runs to the connection's close
		}
	}
	body.reset(length, chunked)
	return nil
}

// framing reads a head's body framing: a Content-Length (-1 when absent)
// or chunked, which only HTTP/1.1 may use. It deletes Transfer-Encoding
// from h, as net/http does.
func framing(h http.Header, major, minor int) (length int64, chunked bool, err error) {
	lengths := h["Content-Length"]
	switch len(lengths) {
	case 0:
		length = -1
	case 1:
		n, perr := strconv.ParseUint(lengths[0], 10, 63)
		if perr != nil {
			return 0, false, errBadFraming
		}
		length = int64(n)
	default:
		return 0, false, errBadFraming
	}
	te, ok := h["Transfer-Encoding"]
	if !ok {
		return length, false, nil
	}
	if major != 1 || minor == 0 || len(te) != 1 || !equalFoldASCII(te[0], "chunked") || length >= 0 {
		return 0, false, errBadFraming
	}
	if _, ok := h["Trailer"]; ok {
		return 0, false, errTrailer
	}
	delete(h, "Transfer-Encoding")
	return -1, true, nil
}

// shouldClose is net/http's rule for whether a message closes its
// connection. For a reply (dropClose) a Connection: close field is
// deleted from h, as http.ReadResponse does.
func shouldClose(major, minor int, h http.Header, dropClose bool) bool {
	if major < 1 {
		return true
	}
	conn := h["Connection"]
	hasClose := containsToken(conn, "close")
	if major == 1 && minor == 0 {
		return hasClose || !containsToken(conn, "keep-alive")
	}
	if hasClose && dropClose {
		delete(h, "Connection")
	}
	return hasClose
}

// containsToken reports whether a comma-separated list in any of vv holds
// token, ignoring ASCII case.
func containsToken(vv []string, token string) bool {
	for _, v := range vv {
		for v != "" {
			var t string
			t, v, _ = strings.Cut(v, ",")
			if equalFoldASCII(trimOWS(t), token) {
				return true
			}
		}
	}
	return false
}

// equalFoldASCII is strings.EqualFold without Unicode folding, under
// which "cloſe" would read as "close".
func equalFoldASCII(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		a, b := s[i], t[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// parseVersion parses "HTTP/x.y" with one digit each, as
// http.ParseHTTPVersion does.
func parseVersion(v string) (major, minor int, ok bool) {
	switch v {
	case "HTTP/1.1":
		return 1, 1, true
	case "HTTP/1.0":
		return 1, 0, true
	}
	if len(v) != len("HTTP/x.y") || v[:5] != "HTTP/" || v[6] != '.' || !isDigit(v[5]) || !isDigit(v[7]) {
		return 0, 0, false
	}
	return int(v[5] - '0'), int(v[7] - '0'), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// parseRequestURI fills u from a request-URI. A plain origin-form path
// (with a query, perhaps) that needs no unescaping is cut out of uri as it
// is; anything else goes through url.ParseRequestURI.
func parseRequestURI(uri string, u *url.URL) error {
	path, query, hasQuery := strings.Cut(uri, "?")
	if path != "" && path[0] == '/' && allBytes(path, &pathBytes) && (!hasQuery || query != "" && allBytes(query, &queryBytes)) {
		*u = url.URL{Path: path, RawQuery: query}
		return nil
	}
	pu, err := url.ParseRequestURI(uri)
	if err != nil {
		return errBadHead
	}
	*u = *pu
	return nil
}

func allBytes(s string, set *[256]bool) bool {
	for i := 0; i < len(s); i++ {
		if !set[s[i]] {
			return false
		}
	}
	return true
}

// Byte classes. pathBytes is what url.URL keeps as it is in a path (no
// escapes, so Path needs no RawPath); queryBytes is every visible ASCII
// byte; tokenBytes are RFC 9110's tchar; hostBytes are what net/http
// allows in a Host header.
var pathBytes, queryBytes, tokenBytes, hostBytes [256]bool

func init() {
	set := func(t *[256]bool, s string) {
		for i := 0; i < len(s); i++ {
			t[s[i]] = true
		}
	}
	const alnum = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	set(&pathBytes, alnum+"-._~$&+,/:;=@")
	for c := 0x21; c < 0x7f; c++ {
		queryBytes[c] = true
	}
	set(&tokenBytes, alnum+"!#$%&'*+-.^_`|~")
	set(&hostBytes, alnum+"!$%&'()*+,-.:;=[]_~")
}

// isToken reports whether s is a non-empty token: a valid method or
// header name.
func isToken(s string) bool { return s != "" && allBytes(s, &tokenBytes) }

// validValue reports whether s may be a header value: no control byte
// but HTAB (RFC 9110's field-vchar, SP and HTAB, and obs-text).
func validValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// isCanonical reports whether key is already in
// http.CanonicalHeaderKey's form.
func isCanonical(key string) bool {
	upper := true
	for i := 0; i < len(key); i++ {
		c := key[i]
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			return false
		}
		upper = c == '-'
	}
	return true
}

// trimOWS trims spaces and tabs from both ends of s.
func trimOWS(s string) string {
	for s != "" && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for s != "" && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// checkRequest vets a request before any byte of it is written, as
// Request.Write and http.Transport do: a valid method, Host, request-URI
// and header fields, and no body (no farm hop sends one). It returns the
// Host and request-URI to write.
func checkRequest(req *http.Request) (host, uri string, err error) {
	if req.Method != "" && !isToken(req.Method) {
		return "", "", errors.New("httpproxy: invalid method " + strconv.Quote(req.Method))
	}
	if req.Body != nil && req.Body != http.NoBody {
		return "", "", errors.New("httpproxy: request bodies are not supported")
	}
	host = req.Host
	if host == "" {
		host = req.URL.Host
	}
	if !allBytes(host, &hostBytes) {
		return "", "", errors.New("httpproxy: invalid Host header")
	}
	uri = req.URL.RequestURI()
	if !allBytes(uri, &queryBytes) {
		return "", "", errors.New("httpproxy: invalid request-URI")
	}
	for k, vv := range req.Header {
		if !isToken(k) {
			return "", "", errors.New("httpproxy: invalid header field name " + strconv.Quote(k))
		}
		for _, v := range vv {
			if !validValue(v) {
				return "", "", errors.New("httpproxy: invalid header field value for " + strconv.Quote(k))
			}
		}
	}
	return host, uri, nil
}

// writeRequest writes a request head that checkRequest has passed.
func writeRequest(bw *bufio.Writer, req *http.Request, host, uri string, keys *[]string) {
	method := req.Method
	if method == "" {
		method = http.MethodGet
	}
	_, _ = bw.WriteString(method)
	_ = bw.WriteByte(' ')
	_, _ = bw.WriteString(uri)
	_, _ = bw.WriteString(" HTTP/1.1\r\nHost: ")
	_, _ = bw.WriteString(host)
	_, _ = bw.WriteString("\r\n")
	writeHeader(bw, req.Header, keys)
	if req.Close {
		_, _ = bw.WriteString("Connection: close\r\n")
	}
	_, _ = bw.WriteString("\r\n") // bufio's error is sticky: the flush reports it
}

// newlineToSpace is http.Header.Write's treatment of CR and LF in a value.
var newlineToSpace = strings.NewReplacer("\n", " ", "\r", " ")

// writeHeader writes h's fields in key order, as http.Header.Write does:
// a field with an invalid name is dropped, and CR or LF in a value becomes
// a space. Host and the framing fields (Content-Length,
// Transfer-Encoding, Trailer) are the writer's own and are skipped. keys
// is scratch space for the sort, kept by the caller.
func writeHeader(bw *bufio.Writer, h http.Header, keys *[]string) {
	ks := (*keys)[:0]
	for k := range h {
		switch k {
		case "Host", "Content-Length", "Transfer-Encoding", "Trailer":
		default:
			if isToken(k) {
				ks = append(ks, k)
			}
		}
	}
	slices.Sort(ks)
	for _, k := range ks {
		for _, v := range h[k] {
			_, _ = bw.WriteString(k)
			_, _ = bw.WriteString(": ")
			_, _ = bw.WriteString(textproto.TrimString(newlineToSpace.Replace(v)))
			_, _ = bw.WriteString("\r\n")
		}
	}
	clear(ks) // the strings belong to h
	*keys = ks[:0]
}

// bodyReader reads one message body off a connection's buffered reader:
// n bytes of a Content-Length body, a chunked body, or, with n < 0 and
// no chunks, everything up to the connection's close. It reports io.EOF
// at the body's framed end and io.ErrUnexpectedEOF if the connection
// ends first. Its reads go through br's buffer, never around it, so that
// bytes a peer sent past the body's end show up in br.Buffered() (see
// putIdle).
type bodyReader struct {
	br     *bufio.Reader
	n      int64     // bytes left of a Content-Length body; -1 otherwise
	chunks io.Reader // the chunk decoder, nil unless chunked
	err    error     // sticky, once the body has ended or failed
}

// reset frames the next body: length bytes, chunked, or (length < 0)
// up to the close.
func (r *bodyReader) reset(length int64, chunked bool) {
	r.n, r.chunks, r.err = length, nil, nil
	if chunked {
		r.n, r.chunks = -1, httputil.NewChunkedReader(r.br)
	}
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.n == 0 {
		r.err = io.EOF
		return 0, io.EOF
	}
	var n int
	var err error
	if r.chunks != nil {
		n, err = r.chunks.Read(p)
		if err == io.EOF {
			err = r.endChunks()
		}
	} else {
		if r.n > 0 && int64(len(p)) > r.n {
			p = p[:r.n]
		}
		if r.br.Buffered() == 0 {
			_, err = r.br.Peek(1)
		}
		if err == nil {
			n, err = r.br.Read(p)
		}
		if r.n > 0 {
			r.n -= int64(n)
			switch {
			case r.n == 0:
				err = io.EOF
			case err == io.EOF:
				err = io.ErrUnexpectedEOF
			}
		}
	}
	if err != nil {
		r.err = err
	}
	return n, err
}

// endChunks reads the CRLF that follows a chunked body's last chunk; a
// trailer field in its place is refused.
func (r *bodyReader) endChunks() error {
	crlf, err := r.br.Peek(2)
	switch {
	case len(crlf) == 2 && crlf[0] == '\r' && crlf[1] == '\n':
		_, _ = r.br.Discard(2)
		return io.EOF
	case len(crlf) == 2:
		return errTrailer
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	}
	return err
}
