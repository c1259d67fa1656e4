//go:build linux && (amd64 || arm64)

package netsim

import (
	"net"
	"syscall"
	"unsafe"

	"interedge/internal/wire"
)

// mmsgArch reports whether this build has the vectored syscall path.
const mmsgArch = true

// rxBatch is how many datagrams one recvmmsg(2) may return.
const rxBatch = 32

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: a msghdr plus the
// kernel-written per-message byte count, padded to 8-byte alignment on
// 64-bit targets.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// mmsgTxState is the per-batch sendmmsg scratch. The sockaddr arrays are
// sized up front and never appended to after header construction begins,
// so the Name pointers taken into them stay valid.
type mmsgTxState struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sa4  []syscall.RawSockaddrInet4
	sa6  []syscall.RawSockaddrInet6
	// GSO flush state: the queued super-datagram messages and the flat
	// cmsg arena (one UDP_SEGMENT cmsg slot per message).
	gsoMsgs []gsoMsg
	cmsgs   []byte
}

func htons(p int) uint16 { return uint16(p)<<8 | uint16(p)>>8 }

func (s *mmsgTxState) grow(n int) {
	if cap(s.hdrs) < n {
		s.hdrs = make([]mmsghdr, n)
		s.iovs = make([]syscall.Iovec, n)
		s.sa4 = make([]syscall.RawSockaddrInet4, n)
		s.sa6 = make([]syscall.RawSockaddrInet6, n)
	}
	s.hdrs = s.hdrs[:n]
	s.iovs = s.iovs[:n]
	s.sa4 = s.sa4[:n]
	s.sa6 = s.sa6[:n]
}

// sendMMsg flushes the encoded batch with as few sendmmsg(2) calls as the
// kernel allows (normally one), waiting on the runtime poller between
// partial sends. It returns errMMsgUnsupported when the socket or kernel
// rejects the vectored call so the caller can fall back per packet.
func (t *UDPTransport) sendMMsg(st *udpTxState) (int, error) {
	n := len(st.bufs)
	s := &st.sys
	s.grow(n)
	for i := 0; i < n; i++ {
		b := *st.bufs[i]
		ep := st.eps[i]
		s.iovs[i] = syscall.Iovec{Base: &b[0]}
		s.iovs[i].SetLen(len(b))
		h := &s.hdrs[i]
		*h = mmsghdr{}
		h.hdr.Iov = &s.iovs[i]
		h.hdr.Iovlen = 1
		if err := t.fillName(s, i, ep, h); err != nil {
			return 0, err
		}
	}
	sent := 0
	for sent < n {
		var nw int
		var errno syscall.Errno
		err := t.rc.Write(func(fd uintptr) bool {
			r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&s.hdrs[sent])), uintptr(n-sent), 0, 0, 0)
			if e == syscall.EAGAIN {
				return false
			}
			nw, errno = int(r1), e
			return true
		})
		if err != nil {
			return sent, err
		}
		switch errno {
		case 0:
		case syscall.ENOSYS, syscall.EOPNOTSUPP, syscall.EAFNOSUPPORT, syscall.EINVAL, syscall.EPERM:
			return sent, errMMsgUnsupported
		default:
			return sent, errno
		}
		if nw <= 0 {
			return sent, errMMsgUnsupported
		}
		sent += nw
	}
	return sent, nil
}

func scopeID(ep *net.UDPAddr) uint32 {
	if ep.Zone == "" {
		return 0
	}
	if ifi, err := net.InterfaceByName(ep.Zone); err == nil {
		return uint32(ifi.Index)
	}
	return 0
}

// rxMMsgState holds the receive-side vectored scratch: one reusable buffer
// and iovec per slot, filled by a single recvmmsg(2), plus per-slot
// control buffers for the UDP_GRO segment-size cmsg when GRO is on.
type rxMMsgState struct {
	hdrs [rxBatch]mmsghdr
	iovs [rxBatch]syscall.Iovec
	bufs [rxBatch][]byte
	oob  [rxBatch][]byte
}

// readLoopMMsg drains the socket in recvmmsg batches until the transport
// closes (returns true, rx channel closed) or the kernel rejects the
// vectored call before anything arrived (returns false; caller falls back
// to the portable loop).
func (t *UDPTransport) readLoopMMsg() bool {
	st := &rxMMsgState{}
	bufSize := wire.MTU + wire.DatagramHeaderSize
	if t.groOn {
		// A GRO buffer must hold a whole coalesced super-datagram.
		bufSize = 1 << 16
	}
	for i := range st.bufs {
		st.bufs[i] = make([]byte, bufSize)
		st.iovs[i] = syscall.Iovec{Base: &st.bufs[i][0]}
		st.iovs[i].SetLen(len(st.bufs[i]))
		st.hdrs[i].hdr.Iov = &st.iovs[i]
		st.hdrs[i].hdr.Iovlen = 1
		if t.groOn {
			st.oob[i] = make([]byte, syscall.CmsgSpace(4)*2)
		}
	}
	for {
		if t.groOn {
			// The kernel overwrites Controllen per message; re-arm the
			// control buffers before every call.
			for i := range st.hdrs {
				st.hdrs[i].hdr.Control = &st.oob[i][0]
				st.hdrs[i].hdr.SetControllen(len(st.oob[i]))
			}
		}
		var nr int
		var errno syscall.Errno
		err := t.rc.Read(func(fd uintptr) bool {
			r1, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&st.hdrs[0])), rxBatch, 0, 0, 0)
			if e == syscall.EAGAIN {
				return false
			}
			nr, errno = int(r1), e
			return true
		})
		if err != nil {
			if t.closed.Load() {
				t.closeRx()
				return true
			}
			continue
		}
		if errno != 0 {
			if errno == syscall.ENOSYS || errno == syscall.EOPNOTSUPP || errno == syscall.EINVAL {
				return false
			}
			if t.closed.Load() {
				t.closeRx()
				return true
			}
			continue
		}
		t.rxMu.Lock()
		qs := t.rx.load()
		for i := 0; i < nr; i++ {
			b := st.bufs[i][:st.hdrs[i].len]
			seg := 0
			if t.groOn {
				seg = groSegSize(&st.hdrs[i], st.oob[i])
			}
			if seg > 0 && seg < len(b) {
				// Coalesced receive: every segment but the last is exactly
				// seg bytes; split back into the original datagrams.
				for off := 0; off < len(b); off += seg {
					end := off + seg
					if end > len(b) {
						end = len(b)
					}
					t.deliverRx(qs, b[off:end])
				}
			} else {
				t.deliverRx(qs, b)
			}
		}
		t.rxMu.Unlock()
	}
}
