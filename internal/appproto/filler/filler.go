// Package filler lays down the deterministic filler bytes the synthetic
// protocol encoders pad their messages with: message bodies, file data,
// RPC stubs — bytes whose only job is to be there, the same on every run.
package filler

// Fill fills b with pat repeated from b[0], the last repetition cut where
// b ends. pat is laid down once and the filled part then doubled by copy,
// so a body of any length costs a handful of memmoves rather than an
// index and a modulo per byte. pat must not be empty.
func Fill(b []byte, pat string) {
	for i := copy(b, pat); i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// Bytes returns n new bytes of pat repeated.
func Bytes(n int, pat string) []byte {
	b := make([]byte, n)
	Fill(b, pat)
	return b
}
