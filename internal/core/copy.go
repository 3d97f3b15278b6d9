package core

import (
	"reflect"

	"chanos/internal/sim/fifo"
)

// Sized lets message types report their payload size exactly; otherwise
// the runtime estimates sizes with reflection (or falls back to
// defaultBytes).
type Sized interface {
	MsgBytes() int
}

// Copier lets message types define their own deep copy for strict
// (shared-nothing) mode, e.g. types with unexported reference fields.
type Copier interface {
	CopyMsg() Msg
}

// queueType recognises a fifo.Queue inside a message (see sizeOf).
var queueType = reflect.TypeFor[fifo.Any]()

// msgBytes estimates the wire size of a payload in bytes.
func (rt *Runtime) msgBytes(v Msg) int {
	switch x := v.(type) {
	case nil:
		return 8
	case bool, int8, uint8:
		return 8
	case int, int16, int32, int64, uint, uint16, uint32, uint64, uintptr, float32, float64:
		return 8
	case string:
		return 16 + len(x)
	case []byte:
		return 24 + len(x)
	case *Chan:
		// Channels are capabilities; sending one sends an endpoint name.
		return 16
	case Sized:
		return x.MsgBytes()
	case Call:
		return 16 + rt.msgBytes(x.Arg)
	case ExitNotice:
		return 48
	case Tick:
		return 8
	}
	n := sizeOf(reflect.ValueOf(v), 4)
	if n <= 0 {
		return defaultBytes
	}
	return n
}

// sizeOf walks a value estimating its byte footprint, bounded by depth to
// keep cost estimation itself cheap.
func sizeOf(v reflect.Value, depth int) int {
	if !v.IsValid() || depth == 0 {
		return 8
	}
	switch v.Kind() {
	case reflect.String:
		return 16 + v.Len()
	case reflect.Slice:
		if v.Len() == 0 {
			return 24
		}
		return 24 + v.Len()*sizeOf(v.Index(0), depth-1)
	case reflect.Array:
		if v.Len() == 0 {
			return 0
		}
		return v.Len() * sizeOf(v.Index(0), depth-1)
	case reflect.Map:
		n := 48
		it := v.MapRange()
		count := 0
		for it.Next() && count < 8 {
			n += sizeOf(it.Key(), depth-1) + sizeOf(it.Value(), depth-1)
			count++
		}
		if count > 0 && v.Len() > count {
			n = n * v.Len() / count
		}
		return n
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 8
		}
		return 8 + sizeOf(v.Elem(), depth-1)
	case reflect.Struct:
		if v.Type().Implements(queueType) {
			// A queue (a channel's buffer inside a message, say) is
			// sized as the slice of what it holds, not by how it holds it.
			items := v.Field(0)
			return sizeOf(items.Slice(int(v.Field(1).Int()), items.Len()), depth)
		}
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += sizeOf(v.Field(i), depth-1)
		}
		if n == 0 {
			n = 8
		}
		return n
	default:
		return int(v.Type().Size())
	}
}

// deepCopy produces an isolated copy of a message for strict
// (shared-nothing) mode. Channels are intentionally NOT copied: they are
// communication capabilities and passing them is the point ("channels can
// be sent through channels", §3). Struct values with unexported reference
// fields are copied shallowly unless they implement Copier.
func deepCopy(v Msg) Msg {
	if v == nil {
		return nil
	}
	if c, ok := v.(Copier); ok {
		return c.CopyMsg()
	}
	if ch, ok := v.(*Chan); ok {
		return ch
	}
	rv := reflect.ValueOf(v)
	return copyValue(rv, 16).Interface()
}

func copyValue(v reflect.Value, depth int) reflect.Value {
	if depth == 0 {
		return v
	}
	switch v.Kind() {
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			setIfPossible(out.Index(i), copyValue(v.Index(i), depth-1))
		}
		return out
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		it := v.MapRange()
		for it.Next() {
			out.SetMapIndex(it.Key(), copyValue(it.Value(), depth-1))
		}
		return out
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		if v.Type() == reflect.TypeOf((*Chan)(nil)) {
			return v // channel endpoints pass by reference
		}
		out := reflect.New(v.Type().Elem())
		setIfPossible(out.Elem(), copyValue(v.Elem(), depth-1))
		return out
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(copyValue(v.Elem(), depth-1))
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		out.Set(v) // shallow copy of everything, including unexported
		for i := 0; i < v.NumField(); i++ {
			f := out.Field(i)
			if !f.CanSet() {
				continue // unexported: stays shallow
			}
			switch f.Kind() {
			case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface:
				f.Set(copyValue(v.Field(i), depth-1))
			}
		}
		return out
	default:
		return v
	}
}

func setIfPossible(dst, src reflect.Value) {
	if dst.CanSet() && src.IsValid() && src.Type().AssignableTo(dst.Type()) {
		dst.Set(src)
	}
}
