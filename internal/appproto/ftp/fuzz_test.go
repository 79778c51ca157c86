package ftp

import (
	"bytes"
	"testing"
)

// FuzzAnalyze feeds the control-channel parsers arbitrary bytes as both
// directions: no panic, reply text that is a view into its line and
// never an over-read, a PASV port that reads the same from a string and
// from bytes, and a session that counts no more than the stream holds.
func FuzzAnalyze(f *testing.F) {
	var dialogue []byte
	for _, turn := range RetrievalDialogue("anonymous", "data.tar", [4]byte{131, 243, 1, 10}, 40123) {
		dialogue = append(dialogue, turn.Data...)
	}
	f.Add(dialogue)
	for _, s := range []string{
		// PASV replies: a field over 255, seven fields, five, digits split
		// by a space, no closing parenthesis, nested and reversed ones, a
		// number that overflows.
		"227 Entering Passive Mode (10,0,0,9,256,1)\r\n",
		"227 ok (1,2,3,4,5,6,7)\r\n227 ok (1,2,3,4,5)\r\n",
		"227 ok (1,2,3,4,1 2,6)\r\n227 ok ( 1 ,2,3,4,5, 6 )\r\n",
		"227 ok (1,2,3,4,5,6\r\n",
		"227 )(1,2,3,4,5,6)(\r\n227 ((1,2,3,4,5,6))\r\n",
		"227 (1,2,3,4,5,99999999999999999999999)\r\n",
		// Reply lines: no space after the code, a two-digit code, a
		// continuation line, a code under 100, no final CRLF, bare CR and LF.
		"230-continued\r\n23 \r\n099 low\r\n226 done",
		"226 a\r226 b\n226 c\r\n",
		// Commands: too long, too short, lower case, non-ASCII, only spaces.
		"RETRIEVE x\r\nST y\r\nretr z\r\nR\xc9TR q\r\n    \r\nUSER\r\nUSER  spaced  \r\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		lines := bytes.Split(stream, []byte("\r\n"))
		pasv := 0
		for _, line := range lines {
			code, text, ok := ParseReplyLine(line)
			if !ok {
				continue
			}
			if code < 100 || code > 999 || len(text) != len(line)-4 {
				t.Fatalf("ParseReplyLine(%q) = %d, %q", line, code, text)
			}
			port, ok := PasvPortFromText(text)
			if sPort, sOK := PasvPortFromText(string(text)); sPort != port || sOK != ok {
				t.Fatalf("PasvPortFromText(%q) reads %d, %v from bytes and %d, %v from a string", text, port, ok, sPort, sOK)
			}
			if ok && code == 227 {
				pasv++
			}
		}
		s := Analyze(stream, stream)
		if s.Transfers != s.Retrievals+s.Stores || s.Transfers > len(lines) || s.Completed > len(lines) {
			t.Fatalf("Analyze counts %+v in a %d-line stream", s, len(lines))
		}
		if len(s.DataPorts) != pasv {
			t.Fatalf("Analyze found %d data ports, the reply lines hold %d", len(s.DataPorts), pasv)
		}
	})
}
