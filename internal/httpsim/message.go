// Package httpsim implements a minimal HTTP/1.1 over the simulated network
// fabric: a text codec, origin web servers that serve landing pages, and a
// client.
//
// The paper's HTML-verification step (§IV-C.3) downloads a landing page
// twice — once through the DPS edge (IP2) and once directly from a
// candidate origin (IP1) — and compares titles and meta tags. This package
// provides both sides of that exchange, including the corner cases the
// paper flags: origins that only answer requests from their DPS provider,
// and meta tags that change per request.
package httpsim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Codec errors.
var (
	ErrMalformedRequest  = errors.New("httpsim: malformed request")
	ErrMalformedResponse = errors.New("httpsim: malformed response")
)

// Request is a simulated HTTP request.
type Request struct {
	Method  string
	Path    string
	Host    string
	Headers map[string]string
}

// Response is a simulated HTTP response.
type Response struct {
	StatusCode int
	Status     string
	Headers    map[string]string
	Body       string
}

// Header returns the canonical status line text for code.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Unknown"
	}
}

// EncodeRequest serializes req in wire form.
func EncodeRequest(req Request) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", req.Method, req.Path)
	fmt.Fprintf(&b, "Host: %s\r\n", req.Host)
	keys := make([]string, 0, len(req.Headers))
	for k := range req.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, req.Headers[k])
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

// DecodeRequest parses a wire-form request.
func DecodeRequest(raw []byte) (Request, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	// The buffer starts at the request's size (plus one byte, so reading
	// it whole leaves room to see EOF) rather than at 64 KiB: every HTML
	// verification fetch decodes a request of a few hundred bytes. A
	// longer line still grows it up to the 1 MiB token cap.
	sc.Buffer(make([]byte, 0, min(len(raw)+1, 64*1024)), 1024*1024)
	if !sc.Scan() {
		return Request{}, fmt.Errorf("empty: %w", ErrMalformedRequest)
	}
	parts := strings.SplitN(sc.Text(), " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return Request{}, fmt.Errorf("request line %q: %w", sc.Text(), ErrMalformedRequest)
	}
	req := Request{Method: parts[0], Path: parts[1], Headers: make(map[string]string)}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return Request{}, fmt.Errorf("header %q: %w", line, ErrMalformedRequest)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if strings.EqualFold(k, "Host") {
			req.Host = v
			continue
		}
		req.Headers[k] = v
	}
	if req.Host == "" {
		return Request{}, fmt.Errorf("missing Host header: %w", ErrMalformedRequest)
	}
	return req, nil
}

// EncodeResponse serializes resp in wire form.
func EncodeResponse(resp Response) []byte {
	var b bytes.Buffer
	status := resp.Status
	if status == "" {
		status = statusText(resp.StatusCode)
	}
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", resp.StatusCode, status)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(resp.Body))
	keys := make([]string, 0, len(resp.Headers))
	for k := range resp.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, resp.Headers[k])
	}
	b.WriteString("\r\n")
	b.WriteString(resp.Body)
	return b.Bytes()
}

// DecodeResponse parses a wire-form response.
func DecodeResponse(raw []byte) (Response, error) {
	head, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
	if !ok {
		return Response{}, fmt.Errorf("no header terminator: %w", ErrMalformedResponse)
	}
	lines := strings.Split(string(head), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return Response{}, fmt.Errorf("status line %q: %w", lines[0], ErrMalformedResponse)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return Response{}, fmt.Errorf("status code %q: %w", parts[1], ErrMalformedResponse)
	}
	resp := Response{StatusCode: code, Headers: make(map[string]string), Body: string(body)}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	var contentLength = -1
	for _, line := range lines[1:] {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return Response{}, fmt.Errorf("header %q: %w", line, ErrMalformedResponse)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if strings.EqualFold(k, "Content-Length") {
			if contentLength, err = strconv.Atoi(v); err != nil {
				return Response{}, fmt.Errorf("content-length %q: %w", v, ErrMalformedResponse)
			}
			continue
		}
		resp.Headers[k] = v
	}
	if contentLength >= 0 && contentLength != len(resp.Body) {
		return Response{}, fmt.Errorf("content-length %d != body %d: %w", contentLength, len(resp.Body), ErrMalformedResponse)
	}
	return resp, nil
}
