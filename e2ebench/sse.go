package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
)

// frame is one Server-Sent Events frame as read off the wire.
type frame struct {
	event string
	id    uint64
	data  []byte
	bytes int // wire bytes of the frame, blank terminator line included
}

// readFrame reads the next complete frame. Multiple data lines join with
// "\n" as the SSE spec says; comment lines and unknown fields are skipped;
// CRLF line ends are accepted. A stream that ends mid-frame is an error.
func readFrame(br *bufio.Reader) (frame, error) {
	var f frame
	var data [][]byte
	seen := false
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if seen || len(line) > 0 {
				return frame{}, fmt.Errorf("sse: stream ended mid-frame: %w", err)
			}
			return frame{}, err
		}
		f.bytes += len(line)
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		if len(line) == 0 {
			if !seen {
				continue
			}
			f.data = bytes.Join(data, []byte("\n"))
			return f, nil
		}
		if line[0] == ':' {
			continue
		}
		seen = true
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(name) {
		case "event":
			f.event = string(value)
		case "id":
			id, err := strconv.ParseUint(string(value), 10, 64)
			if err != nil {
				return frame{}, fmt.Errorf("sse: bad id %q", value)
			}
			f.id = id
		case "data":
			data = append(data, value)
		}
	}
}
