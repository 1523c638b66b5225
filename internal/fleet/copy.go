package fleet

import (
	"bytes"
	"reflect"
)

// deepCopy returns a structurally independent copy of v, so a value
// handed out by the run cache can be mutated by its receiver without
// corrupting the cached original (or a sibling cache hit). Pointers,
// slices, maps and interfaces are copied recursively; structs are
// copied whole and then have their exported fields recursed. Unexported
// pointer internals (e.g. a histogram buried in a perfmon struct)
// cannot be reached by reflection and stay shared — results cached by
// fleet treat those as read-only.
//
// A []byte — what every cedarserve response is cached as — is cloned
// directly: the reflection walk would visit it one byte at a time.
func deepCopy(v any) any {
	if v == nil {
		return nil
	}
	if b, ok := v.([]byte); ok {
		return bytes.Clone(b)
	}
	return copyValue(reflect.ValueOf(v)).Interface()
}

func copyValue(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type().Elem())
		out.Elem().Set(copyValue(v.Elem()))
		return out
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(copyValue(v.Index(i)))
		}
		return out
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		iter := v.MapRange()
		for iter.Next() {
			out.SetMapIndex(copyValue(iter.Key()), copyValue(iter.Value()))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		out.Set(v) // whole-value copy carries unexported fields along
		for i := 0; i < out.NumField(); i++ {
			f := out.Field(i)
			if f.CanSet() {
				f.Set(copyValue(v.Field(i)))
			}
		}
		return out
	case reflect.Array:
		out := reflect.New(v.Type()).Elem()
		out.Set(v)
		for i := 0; i < out.Len(); i++ {
			if out.Index(i).CanSet() {
				out.Index(i).Set(copyValue(v.Index(i)))
			}
		}
		return out
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(copyValue(v.Elem()))
		return out
	default:
		// Scalars, strings, chans, funcs: value copy is enough (chans and
		// funcs are reference types, but cached results never carry them).
		return v
	}
}
