package smtp

import (
	"strings"
	"testing"
	"testing/quick"
)

// replyTo returns the server's reply to the first client turn that
// begins with prefix, and whether there was one.
func replyTo(turns []Turn, prefix string) (string, bool) {
	for i, t := range turns {
		if t.FromClient && strings.HasPrefix(string(t.Data), prefix) && i+1 < len(turns) {
			return string(turns[i+1].Data), true
		}
	}
	return "", false
}

// body returns the message body the client sends after the server's
// 354 go-ahead, terminator included, or nil.
func body(turns []Turn) []byte {
	for i, t := range turns {
		if !t.FromClient && strings.HasPrefix(string(t.Data), "354") && i+1 < len(turns) {
			return turns[i+1].Data
		}
	}
	return nil
}

func TestAcceptedDialogue(t *testing.T) {
	d := &Dialogue{ClientHost: "pc1.lbl.gov", From: "a@lbl.gov", To: "b@lbl.gov", MessageSize: 4000}
	turns := d.Turns()
	if len(turns) < 10 {
		t.Fatalf("only %d turns", len(turns))
	}
	if turns[0].FromClient {
		t.Error("SMTP server speaks first (220 banner)")
	}
	msg := body(turns)
	if n := len(msg); n < 4000 || n > 4100 {
		t.Errorf("message bytes = %d, want ≈4000", n)
	}
	if r, _ := replyTo(turns, string(msg)); !strings.HasPrefix(r, "250") {
		t.Errorf("reply after DATA = %q, want 250", r)
	}
}

func TestRejectedDialogue(t *testing.T) {
	d := &Dialogue{ClientHost: "ext.example.com", From: "spam@example.com", To: "x@lbl.gov", MessageSize: 100, Rejected: true}
	turns := d.Turns()
	if r, _ := replyTo(turns, "MAIL FROM:"); !strings.HasPrefix(r, "550") {
		t.Errorf("reply to MAIL = %q, want 550", r)
	}
	if _, sent := replyTo(turns, "DATA"); sent {
		t.Error("rejected session sent DATA")
	}
	if msg := body(turns); msg != nil {
		t.Errorf("rejected session transferred %d bytes", len(msg))
	}
}

func TestAlternation(t *testing.T) {
	d := &Dialogue{ClientHost: "h", From: "a@b", To: "c@d", MessageSize: 10}
	turns := d.Turns()
	for i := 1; i < len(turns); i++ {
		if turns[i].FromClient == turns[i-1].FromClient {
			// Only the DATA body follows another client turn... verify none.
			t.Errorf("turns %d and %d from same side", i-1, i)
		}
	}
}

// Property: every message is accepted, and its body tracks the requested
// size within the terminator slack for any size.
func TestMessageSizeProperty(t *testing.T) {
	f := func(size uint16) bool {
		d := &Dialogue{ClientHost: "h", From: "a@b", To: "c@d", MessageSize: int(size)}
		turns := d.Turns()
		msg := body(turns)
		if r, _ := replyTo(turns, string(msg)); msg == nil || !strings.HasPrefix(r, "250") {
			return false
		}
		return len(msg) >= int(size) && len(msg) <= int(size)+128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
