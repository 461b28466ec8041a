// Package client provides the user-facing access layers the paper evaluates
// through: an object backend abstraction and an RBD-style block device that
// stripes a virtual disk over fixed-size objects (the KRBD block device the
// paper's FIO and SPEC SFS runs use, §6.4.1).
package client

import (
	"fmt"

	"dedupstore/internal/core"
	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// ObjectBackend is the object API a block device stripes over. Both the
// original (no-dedup) store and the dedup store implement it.
type ObjectBackend interface {
	// Write stores data at an offset within an object.
	Write(p *sim.Proc, oid string, off int64, data []byte) error
	// Read returns length bytes at off (length < 0 reads to object end).
	// Reading a never-written object returns (nil, nil) hole semantics via
	// the block layer; backends may return their not-found error.
	Read(p *sim.Proc, oid string, off, length int64) ([]byte, error)
	// Delete removes an object.
	Delete(p *sim.Proc, oid string) error
}

// RawBackend is the baseline backend: objects go straight to one pool with
// no deduplication ("Original" in the paper's figures).
type RawBackend struct {
	GW   *rados.Gateway
	Pool *rados.Pool
}

// Write implements ObjectBackend.
func (b *RawBackend) Write(p *sim.Proc, oid string, off int64, data []byte) error {
	return b.GW.Write(p, b.Pool, oid, off, data)
}

// Read implements ObjectBackend.
func (b *RawBackend) Read(p *sim.Proc, oid string, off, length int64) ([]byte, error) {
	return b.GW.Read(p, b.Pool, oid, off, length)
}

// Delete implements ObjectBackend.
func (b *RawBackend) Delete(p *sim.Proc, oid string) error {
	return b.GW.Delete(p, b.Pool, oid)
}

// DedupBackend adapts a core.Client (the proposed design) to ObjectBackend.
type DedupBackend struct {
	Client *core.Client
}

// Write implements ObjectBackend.
func (b *DedupBackend) Write(p *sim.Proc, oid string, off int64, data []byte) error {
	return b.Client.Write(p, oid, off, data)
}

// Read implements ObjectBackend.
func (b *DedupBackend) Read(p *sim.Proc, oid string, off, length int64) ([]byte, error) {
	return b.Client.Read(p, oid, off, length)
}

// Delete implements ObjectBackend.
func (b *DedupBackend) Delete(p *sim.Proc, oid string) error {
	return b.Client.Delete(p, oid)
}

// BlockDevice is a virtual disk of Size bytes striped over ObjectSize-byte
// objects named <name>.<index>, like Ceph's RBD image layout.
type BlockDevice struct {
	name       string
	size       int64
	objectSize int64
	backend    ObjectBackend
	sink       *metrics.TraceSink
	tenant     string
}

// NewBlockDevice creates a block device view. objectSize defaults to 4 MiB
// (RBD's default) when zero.
func NewBlockDevice(name string, size, objectSize int64, backend ObjectBackend) (*BlockDevice, error) {
	if size <= 0 {
		return nil, fmt.Errorf("client: invalid device size %d", size)
	}
	if objectSize <= 0 {
		objectSize = 4 << 20
	}
	return &BlockDevice{name: name, size: size, objectSize: objectSize, backend: backend}, nil
}

// Name returns the device name.
func (d *BlockDevice) Name() string { return d.name }

// Size returns the device capacity in bytes.
func (d *BlockDevice) Size() int64 { return d.size }

// ObjectSize returns the stripe object size.
func (d *BlockDevice) ObjectSize() int64 { return d.objectSize }

// SetTrace attaches a span sink; WriteAt and ReadAt then record device-level
// spans ("rbd.write"/"rbd.read") that the per-object backend spans nest
// under. A nil sink disables device-level tracing.
func (d *BlockDevice) SetTrace(sink *metrics.TraceSink) { d.sink = sink }

// SetTenant attributes the device's spans to a tenant identity, so
// device-level I/O joins the per-tenant trace trail the backend layers
// continue.
func (d *BlockDevice) SetTenant(tenant string) { d.tenant = tenant }

// ObjectName returns the backing object name for stripe index idx.
func (d *BlockDevice) ObjectName(idx int64) string {
	return fmt.Sprintf("%s.%016x", d.name, idx)
}

// ObjectCount returns how many stripe objects cover the device.
func (d *BlockDevice) ObjectCount() int64 {
	return (d.size + d.objectSize - 1) / d.objectSize
}

// WriteAt writes data at a device offset, splitting across stripe objects.
func (d *BlockDevice) WriteAt(p *sim.Proc, off int64, data []byte) error {
	if off < 0 || int64(len(data)) > d.size-off { // not off+len: that sum can overflow
		return fmt.Errorf("client: write of %d bytes at %d outside device %q size %d", len(data), off, d.name, d.size)
	}
	sp := d.sink.Start(p, "rbd.write").SetOp(d.name, "", int64(len(data))).SetTenant(d.tenant)
	defer sp.Finish(p)
	for len(data) > 0 {
		idx := off / d.objectSize
		inObj := off % d.objectSize
		n := d.objectSize - inObj
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		if err := d.backend.Write(p, d.ObjectName(idx), inObj, data[:n]); err != nil {
			return err
		}
		off += n
		data = data[n:]
	}
	return nil
}

// ReadAt reads length bytes at a device offset. Unwritten regions read as
// zeros (thin provisioning). The result is the caller's: when one stripe
// object covers the request and holds all of it, that is the backend's own
// buffer, handed on without a copy.
func (d *BlockDevice) ReadAt(p *sim.Proc, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || length > d.size-off { // not off+length: that sum can overflow
		return nil, fmt.Errorf("client: read of %d bytes at %d outside device %q size %d", length, off, d.name, d.size)
	}
	sp := d.sink.Start(p, "rbd.read").SetOp(d.name, "", length).SetTenant(d.tenant)
	defer sp.Finish(p)
	var out []byte // zero-filled assembly buffer, for every case but the one above
	pos := int64(0)
	for pos < length {
		idx := (off + pos) / d.objectSize
		inObj := (off + pos) % d.objectSize
		n := d.objectSize - inObj
		if n > length-pos {
			n = length - pos
		}
		data, err := d.backend.Read(p, d.ObjectName(idx), inObj, n)
		if err != nil && err != rados.ErrNotFound { // not found is a hole: zeros
			return nil, err
		}
		if err == nil && n == length && int64(len(data)) == n {
			return data, nil
		}
		if out == nil {
			out = make([]byte, length)
		}
		copy(out[pos:], data)
		pos += n
	}
	return out, nil
}

// Discard deletes whole stripe objects fully covered by [off, off+length).
func (d *BlockDevice) Discard(p *sim.Proc, off, length int64) error {
	if off < 0 || length < 0 || length > d.size-off { // not off+length: that sum can overflow
		return fmt.Errorf("client: discard of %d bytes at %d outside device %q size %d", length, off, d.name, d.size)
	}
	first := (off + d.objectSize - 1) / d.objectSize
	last := (off + length) / d.objectSize
	for idx := first; idx < last; idx++ {
		if err := d.backend.Delete(p, d.ObjectName(idx)); err != nil && err != rados.ErrNotFound {
			return err
		}
	}
	return nil
}
