package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// client is one keep-alive HTTP/1.1 connection driven in a closed loop. It
// writes requests that were encoded before timing started and reads each
// response with the standard parser, so the client adds no goroutines, no
// connection pool and no JSON encoding to the timed path.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// encodeQuery renders the complete POST /query request for q.
func encodeQuery(addr, q string) []byte {
	body, _ := json.Marshal(map[string]string{"query": q}) // a string map always encodes
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST /query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, len(body))
	b.Write(body)
	return b.Bytes()
}

// do sends one pre-encoded request and reads the whole response. It returns
// the status, the body (valid until the next call) and the time from writing
// the request to reading the last body byte.
func (c *client) do(req []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	wall := time.Since(start)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.body.Bytes(), wall, nil
}
