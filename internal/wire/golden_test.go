package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"accelstream/internal/stream"
)

// TestHandshakeGoldenBytes pins the exact wire form (type byte, length,
// payload and CRC) of the Open and OpenAck frames. Any change to these
// bytes is a protocol break for deployed peers, so a failure here means
// the encoding moved, not that the test needs new hex.
func TestHandshakeGoldenBytes(t *testing.T) {
	// Every Open field set. Validate refuses ordered results on a sharded
	// session, so this one pins the encoder and checks that the decoder
	// reads every field up to that validation step.
	full := OpenConfig{
		Engine: EngineSoftUni, Cores: 8, Window: 1 << 14, Ordered: true,
		ShardCount: 4, ShardIndex: 2, BaseSeqR: 1 << 33, BaseSeqS: 300,
		AuthToken: "hunter2", ProbeKernel: stream.KernelScan, Tenant: "acme.prod",
	}
	cases := []struct {
		name    string
		write   func(*Writer) error
		hex     string
		decode  func(payload []byte) (any, error)
		want    any
		wantErr string
	}{
		{
			name:    "open every field",
			write:   func(w *Writer) error { return w.WriteOpen(full) },
			hex:     "0137020101010201080303808001040101050104060102070580808080200802ac02090768756e746572320a01020b0961636d652e70726f648749124e",
			decode:  func(p []byte) (any, error) { return DecodeOpen(p) },
			wantErr: "ordered results are unavailable on a sharded session",
		},
		{
			name:   "open minimal",
			write:  func(w *Writer) error { return w.WriteOpen(OpenConfig{Engine: EngineSoftUni, Cores: 1, Window: 1}) },
			hex:    "010a020101010201010301017714f128",
			decode: func(p []byte) (any, error) { return DecodeOpen(p) },
			want:   OpenConfig{Engine: EngineSoftUni, Cores: 1, Window: 1},
		},
		{
			name:   "ack accept",
			write:  func(w *Writer) error { return w.WriteOpenAck(OpenAck{Credits: 64, Session: 7}) },
			hex:    "02080002010140020107b6b3ffa5",
			decode: func(p []byte) (any, error) { return DecodeOpenAck(p) },
			want:   OpenAck{Credits: 64, Session: 7},
		},
		{
			name: "ack resumed",
			write: func(w *Writer) error {
				return w.WriteOpenAck(OpenAck{Credits: 8, Session: 1 << 20, Resumed: true, ResumeSeqR: 1 << 33, ResumeSeqS: 42})
			},
			hex:    "0217000201010802038080400301010405808080802005012a1684f43f",
			decode: func(p []byte) (any, error) { return DecodeOpenAck(p) },
			want:   OpenAck{Credits: 8, Session: 1 << 20, Resumed: true, ResumeSeqR: 1 << 33, ResumeSeqS: 42},
		},
		{
			name: "ack reject with retry hint",
			write: func(w *Writer) error {
				return w.WriteOpenAck(OpenAck{Reject: RejectRateLimited, RetryAfter: 1500 * time.Millisecond})
			},
			hex:    "020900020601040702dc0bdc5a4025",
			decode: func(p []byte) (any, error) { return DecodeOpenAck(p) },
			want:   OpenAck{Reject: RejectRateLimited, RetryAfter: 1500 * time.Millisecond},
		},
		{
			name:   "ack reject without hint",
			write:  func(w *Writer) error { return w.WriteOpenAck(OpenAck{Reject: RejectUnauthorized}) },
			hex:    "020500020601013c92b546",
			decode: func(p []byte) (any, error) { return DecodeOpenAck(p) },
			want:   OpenAck{Reject: RejectUnauthorized},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(NewWriter(&buf)); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(buf.Bytes()); got != tc.hex {
				t.Fatalf("encoding moved:\n got %s\nwant %s", got, tc.hex)
			}
			frame, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewReader(bytes.NewReader(frame)).ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.decode(f.Payload)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("decode err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("decoded %+v, want %+v", got, tc.want)
			}
		})
	}
}
