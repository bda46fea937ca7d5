package shard

// InProc is the in-process transport: it drives a Worker directly, but
// round-trips EVERY message through the wire codec, so the fleet pays for
// and exercises the same byte format (EncodeStage/DecodeStage and the
// scatter messages) a transport between processes would ship.

import "fmt"

// InProc adapts a Worker to the Client interface through the codec.
type InProc struct {
	W *Worker
}

// Hello implements Client.
func (c InProc) Hello() (*Hello, error) {
	return DecodeHello(EncodeHello(c.W.Hello()))
}

// Stage implements Client.
func (c InProc) Stage(req *StageReq) error {
	wire, err := DecodeStage(EncodeStage(req))
	if err != nil {
		return fmt.Errorf("shard: stage round-trip: %w", err)
	}
	return c.W.Stage(wire)
}

// Commit implements Client.
func (c InProc) Commit(epoch int64) error {
	return c.W.Commit(epoch)
}

// Scatter implements Client.
func (c InProc) Scatter(req *ScatterReq) (*Partial, error) {
	wire, err := DecodeScatter(EncodeScatter(req))
	if err != nil {
		return nil, fmt.Errorf("shard: scatter round-trip: %w", err)
	}
	p, err := c.W.Scatter(wire)
	if err != nil {
		return nil, err
	}
	return DecodePartial(EncodePartial(p))
}

// Close implements Client.
func (c InProc) Close() error { return c.W.Close() }
