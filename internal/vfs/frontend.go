package vfs

import (
	"strings"

	"chanos/internal/core"
)

// FS is the client-facing filesystem interface implemented by every
// frontend (MsgFS, BigLock/ShardLock LockFS). Paths are slash-separated
// and absolute ("/a/b/c").
type FS interface {
	Lookup(t *core.Thread, path string) (int, error)
	Create(t *core.Thread, path string) (int, error)
	Mkdir(t *core.Thread, path string) (int, error)
	Unlink(t *core.Thread, path string) error
	Stat(t *core.Thread, path string) (Inode, error)
	Read(t *core.Thread, path string, off, n int) ([]byte, error)
	Write(t *core.Thread, path string, off int, data []byte) error
	ReadDir(t *core.Thread, path string) ([]string, error)
	Open(t *core.Thread, path string) (*Handle, error)
}

// backend is what a frontend does its own way: MsgFS messages each
// vnode's thread, LockFS traps and runs the operation inline under
// locks. Both run the same operation table (Ctx.apply).
type backend interface {
	// run resolves comps from the root and applies req to the inode
	// reached; a vWalk request returns that inode's number.
	run(t *core.Thread, comps []string, req vnReq) vnResp
	// open resolves comps and binds a handle to the inode reached.
	open(t *core.Thread, comps []string) (*Handle, error)
}

// frontend is the path layer both filesystems share: it splits the
// path, then hands the components and one request to the backend.
type frontend struct {
	be backend
}

// Lookup implements FS.
func (f frontend) Lookup(t *core.Thread, path string) (int, error) {
	r := f.onPath(t, path, vnReq{op: vWalk})
	return r.ino, r.err
}

// Create implements FS.
func (f frontend) Create(t *core.Thread, path string) (int, error) {
	r := f.onParent(t, path, vCreate)
	return r.ino, r.err
}

// Mkdir implements FS.
func (f frontend) Mkdir(t *core.Thread, path string) (int, error) {
	r := f.onParent(t, path, vMkdir)
	return r.ino, r.err
}

// Unlink implements FS.
func (f frontend) Unlink(t *core.Thread, path string) error {
	return f.onParent(t, path, vUnlink).err
}

// Stat implements FS.
func (f frontend) Stat(t *core.Thread, path string) (Inode, error) {
	r := f.onPath(t, path, vnReq{op: vStat})
	return r.inode, r.err
}

// Read implements FS.
func (f frontend) Read(t *core.Thread, path string, off, n int) ([]byte, error) {
	r := f.onPath(t, path, vnReq{op: vRead, off: off, n: n})
	return r.data, r.err
}

// Write implements FS.
func (f frontend) Write(t *core.Thread, path string, off int, data []byte) error {
	return f.onPath(t, path, vnReq{op: vWrite, off: off, data: data}).err
}

// ReadDir implements FS.
func (f frontend) ReadDir(t *core.Thread, path string) ([]string, error) {
	r := f.onPath(t, path, vnReq{op: vList})
	return r.names, r.err
}

// Open implements FS: it resolves path once and returns a handle whose
// calls skip the walk.
func (f frontend) Open(t *core.Thread, path string) (*Handle, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	return f.be.open(t, comps)
}

// onPath applies req to the inode path names.
func (f frontend) onPath(t *core.Thread, path string, req vnReq) vnResp {
	comps, err := splitPath(path)
	if err != nil {
		return vnResp{err: err}
	}
	return f.be.run(t, comps, req)
}

// onParent applies op, naming path's last component, to its parent
// directory.
func (f frontend) onParent(t *core.Thread, path string, op vnOp) vnResp {
	parent, name, err := splitParent(path)
	if err != nil {
		return vnResp{err: err}
	}
	return f.be.run(t, parent, vnReq{op: op, name: name})
}

// Handle is an open file. On MsgFS it holds a direct channel to the
// file's vnode thread — the paper's connection plumbing: resolve a path
// once, then "move the data directly to its destination by a single send
// operation". On LockFS it holds only the inode number (the fd-table
// analogue): each call skips the walk but still traps and locks.
type Handle struct {
	Ino int
	ch  *core.Chan // MsgFS: the vnode thread's request channel
	lfs *LockFS    // LockFS: the filesystem each call traps into
}

// call applies one request to the open file.
func (h *Handle) call(t *core.Thread, req vnReq) vnResp {
	if h.lfs != nil {
		return h.lfs.at(t, h.Ino, req)
	}
	reply := t.NewChan("h.reply", 1)
	req.reply = reply
	h.ch.Send(t, req)
	v, _ := reply.Recv(t)
	return v.(vnResp)
}

// Stat returns the file's inode.
func (h *Handle) Stat(t *core.Thread) (Inode, error) {
	r := h.call(t, vnReq{op: vStat})
	return r.inode, r.err
}

// Read reads up to n bytes at off.
func (h *Handle) Read(t *core.Thread, off, n int) ([]byte, error) {
	r := h.call(t, vnReq{op: vRead, off: off, n: n})
	return r.data, r.err
}

// Write writes data at off.
func (h *Handle) Write(t *core.Thread, off int, data []byte) error {
	return h.call(t, vnReq{op: vWrite, off: off, data: data}).err
}

// splitPath breaks an absolute path into components; "/" yields nil.
func splitPath(p string) ([]string, error) {
	if !strings.HasPrefix(p, "/") {
		return nil, ErrNotFound
	}
	var out []string
	for _, c := range strings.Split(p, "/") {
		if c == "" || c == "." {
			continue
		}
		if len(c) > MaxName {
			return nil, ErrNameLen
		}
		out = append(out, c)
	}
	return out, nil
}

// splitParent returns the parent components and the final name.
func splitParent(p string) (parent []string, name string, err error) {
	comps, err := splitPath(p)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", ErrExists // operating on "/"
	}
	return comps[:len(comps)-1], comps[len(comps)-1], nil
}
