// Package http implements a compact HTTP/1.x message codec and stream
// analyzer sufficient for the paper's §5.1.1 web characterization:
// request methods (GET/POST/conditional GET), response status codes,
// Content-Type accounting, body sizes, and identification of automated
// clients (the site scanner, Google bots, and applications such as
// iFolder that run on top of HTTP), which Table 6 shows dominate internal
// web traffic.
package http

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"enttrace/internal/appproto/filler"
)

// Request is one parsed HTTP request.
type Request struct {
	Method    string
	URI       string
	Host      string
	UserAgent string
	// Conditional marks requests bearing If-Modified-Since (or
	// If-None-Match), the paper's "conditional GET".
	Conditional bool
	BodyLen     int
}

// Response is one parsed HTTP response.
type Response struct {
	Status      int
	ContentType string
	BodyLen     int
}

// ContentClass buckets a MIME type the way Table 7 does.
func ContentClass(mime string) string {
	mime = strings.ToLower(mime)
	switch {
	case mime == "":
		return "other"
	case strings.HasPrefix(mime, "text/"):
		return "text"
	case strings.HasPrefix(mime, "image/"):
		return "image"
	case strings.HasPrefix(mime, "application/"):
		return "application"
	default:
		return "other" // audio, video, multipart, ...
	}
}

// Automated-client classes of Table 6.
const (
	ClientBrowser = "browser"
	ClientScanner = "scan1"
	ClientGoogle1 = "google1"
	ClientGoogle2 = "google2"
	ClientIFolder = "ifolder"
)

// ClassifyAgent maps a User-Agent to the paper's automated-client classes.
// This mirrors how the authors separated non-browsing activity from user
// browsing before computing the rest of the HTTP statistics.
func ClassifyAgent(ua string) string {
	switch {
	case containsFold(ua, "site-scanner"):
		return ClientScanner
	case containsFold(ua, "googlebot-1"):
		return ClientGoogle1
	case containsFold(ua, "googlebot-2"):
		return ClientGoogle2
	case containsFold(ua, "ifolder"):
		return ClientIFolder
	default:
		return ClientBrowser
	}
}

// containsFold reports whether s contains sub under ASCII case folding;
// sub must be lowercase. It is the allocation-free stand-in for
// strings.Contains(strings.ToLower(s), sub) on this hot path.
func containsFold(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if equalFold(s[i:i+len(sub)], sub) {
			return true
		}
	}
	return false
}

// equalFold reports a == lower(b) where lower is the lowercase form of a;
// b must already be lowercase ASCII.
func equalFold(a, lower string) bool {
	for i := 0; i < len(a); i++ {
		c := a[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// Automated reports whether the class is one of the Table 6 automated
// activities.
func Automated(class string) bool { return class != ClientBrowser }

// fixedHeadLen covers everything in an encoded head but the caller's
// strings — the longer of the two is the request's, ≈120 bytes with its
// If-Modified-Since line — so the encoders can size one buffer for head
// and body up front.
const fixedHeadLen = 128

// EncodeRequest serializes a request with a Content-Length body.
func EncodeRequest(r *Request) []byte {
	b := make([]byte, 0, fixedHeadLen+len(r.Method)+len(r.URI)+len(r.Host)+len(r.UserAgent)+max(r.BodyLen, 0))
	b = fmt.Appendf(b, "%s %s HTTP/1.1\r\n", r.Method, r.URI)
	b = fmt.Appendf(b, "Host: %s\r\n", r.Host)
	if r.UserAgent != "" {
		b = fmt.Appendf(b, "User-Agent: %s\r\n", r.UserAgent)
	}
	if r.Conditional {
		b = append(b, "If-Modified-Since: Thu, 01 Jul 2004 00:00:00 GMT\r\n"...)
	}
	if r.BodyLen > 0 {
		b = fmt.Appendf(b, "Content-Length: %d\r\n", r.BodyLen)
	}
	b = append(b, "\r\n"...)
	return appendBody(b, r.BodyLen)
}

// EncodeResponse serializes a response with a Content-Length body.
func EncodeResponse(r *Response) []byte {
	b := make([]byte, 0, fixedHeadLen+len(r.ContentType)+max(r.BodyLen, 0))
	b = fmt.Appendf(b, "HTTP/1.1 %d %s\r\n", r.Status, statusText(r.Status))
	if r.ContentType != "" {
		b = fmt.Appendf(b, "Content-Type: %s\r\n", r.ContentType)
	}
	b = fmt.Appendf(b, "Content-Length: %d\r\n", r.BodyLen)
	b = append(b, "Connection: keep-alive\r\n\r\n"...)
	return appendBody(b, r.BodyLen)
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 206:
		return "Partial Content"
	case 304:
		return "Not Modified"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Status"
	}
}

// appendBody appends n deterministic filler bytes to an encoded head,
// in place when the head's buffer was sized for them.
func appendBody(b []byte, n int) []byte {
	if n <= 0 {
		return b
	}
	head := len(b)
	b = slices.Grow(b, n)[:head+n]
	filler.Fill(b[head:], "abcdefghijklmnopqrstuvwxyz0123456789")
	return b
}

// ParseRequests parses a reassembled client→server stream into requests.
// Parsing is tolerant: a malformed head terminates the parse, returning
// what was recognized. The stream is borrowed: every retained field is an
// owned string copy, so the caller may recycle the buffer afterwards. It
// is a one-chunk feed of StreamParser.
func ParseRequests(stream []byte) []Request {
	var p StreamParser
	p.InitRequests(0)
	p.Data(stream)
	return p.Requests()
}

// ParseResponses parses a reassembled server→client stream into responses.
// The stream is borrowed; see ParseRequests.
func ParseResponses(stream []byte) []Response {
	var p StreamParser
	p.InitResponses(0)
	p.Data(stream)
	return p.Responses()
}

// parseRequestLine splits a request's first line; ok is false when it is
// not "method SP uri SP HTTP/…".
func parseRequestLine(first []byte) (method, uri []byte, ok bool) {
	method, after, ok1 := cutByte(first, ' ')
	uri, version, ok2 := cutByte(after, ' ')
	return method, uri, ok1 && ok2 && bytes.HasPrefix(version, []byte("HTTP/"))
}

// parseStatusLine extracts a response's status code; ok is false when the
// first line is not "HTTP/… SP positive-code …".
func parseStatusLine(first []byte) (status int, ok bool) {
	version, after, ok1 := cutByte(first, ' ')
	if !ok1 || !bytes.HasPrefix(version, []byte("HTTP/")) {
		return 0, false
	}
	codeStr, _, _ := cutByte(after, ' ')
	status = parseInt(codeStr)
	return status, status > 0
}

// parseRequestHead parses one request head (everything before its
// CRLFCRLF). cl is the declared Content-Length; the caller counts the body
// bytes the stream actually carries into BodyLen.
func parseRequestHead(head []byte) (r Request, cl int, ok bool) {
	first, hdrs := cutLine(head)
	method, uri, ok := parseRequestLine(first)
	if !ok {
		return r, 0, false
	}
	r = Request{Method: internMethod(method), URI: string(uri)}
	for len(hdrs) > 0 {
		var ln []byte
		ln, hdrs = cutLine(hdrs)
		name, val, found := cutByte(ln, ':')
		if !found {
			continue
		}
		val = trimSpace(val)
		switch {
		case nameIs(name, "host"):
			r.Host = string(val)
		case nameIs(name, "user-agent"):
			r.UserAgent = string(val)
		case nameIs(name, "if-modified-since"), nameIs(name, "if-none-match"):
			r.Conditional = true
		case nameIs(name, "content-length"):
			cl = parseInt(val)
		}
	}
	return r, cl, true
}

// parseResponseHead is parseRequestHead for a response head.
func parseResponseHead(head []byte) (r Response, cl int, ok bool) {
	first, hdrs := cutLine(head)
	status, ok := parseStatusLine(first)
	if !ok {
		return r, 0, false
	}
	r = Response{Status: status}
	for len(hdrs) > 0 {
		var ln []byte
		ln, hdrs = cutLine(hdrs)
		name, val, found := cutByte(ln, ':')
		if !found {
			continue
		}
		val = trimSpace(val)
		switch {
		case nameIs(name, "content-type"):
			if semi := bytes.IndexByte(val, ';'); semi >= 0 {
				val = val[:semi]
			}
			r.ContentType = string(val)
		case nameIs(name, "content-length"):
			cl = parseInt(val)
		}
	}
	return r, cl, true
}

// cutLine splits off the first CRLF-terminated line; the remainder is
// everything after the CRLF (or empty).
func cutLine(b []byte) (line, rest []byte) {
	if i := bytes.Index(b, []byte("\r\n")); i >= 0 {
		return b[:i], b[i+2:]
	}
	return b, nil
}

// cutByte is bytes.Cut with a single-byte separator.
func cutByte(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// nameIs reports whether a header name equals the lowercase target under
// ASCII case folding.
func nameIs(name []byte, lower string) bool {
	if len(name) != len(lower) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// parseInt is a minimal non-negative integer parser (0 on malformed
// input, matching the old strconv.Atoi error-ignoring behaviour).
func parseInt(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
		if n < 0 {
			return 0
		}
	}
	if len(b) == 0 {
		return 0
	}
	return n
}

// internMethod returns the canonical string for common request methods so
// parsing a request usually costs no method allocation.
func internMethod(m []byte) string {
	switch {
	case bytes.Equal(m, []byte("GET")):
		return "GET"
	case bytes.Equal(m, []byte("POST")):
		return "POST"
	case bytes.Equal(m, []byte("HEAD")):
		return "HEAD"
	case bytes.Equal(m, []byte("PUT")):
		return "PUT"
	case bytes.Equal(m, []byte("OPTIONS")):
		return "OPTIONS"
	default:
		return string(m)
	}
}
