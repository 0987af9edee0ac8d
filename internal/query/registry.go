package query

import "fmt"

// Field is one named, typed column over rows of type T. Extract returns the
// value and true, or (anything, false) when the field is null for the row —
// for example an APK-derived field on a listing whose APK failed to parse.
//
// Extracted values must match the declared kind: string for KindString,
// int/int64 for KindInt, float64 for KindFloat, bool for KindBool and
// time.Time for KindTime. A zero time also counts as null, so extractors
// need not special-case unset dates.
type Field[T any] struct {
	Name     string
	Category string
	Kind     Kind
	Doc      string
	Nullable bool
	// Indexable lets the engine build secondary indexes (code bitmaps on a
	// dictionary-encoded string, a sorted permutation) over this field, so
	// == / in / range filters can skip the full scan. Meant for fields that are filtered
	// often and cheap to index: low-cardinality strings and bools, and the
	// numeric fields range queries target.
	Indexable bool
	// Dictionary marks a low-cardinality string field for dictionary
	// encoding: the engine stores the column as int codes into a sorted
	// dictionary of distinct values, group-by keys compare as ints, and —
	// combined with Indexable — == / in read one compressed bitmap per
	// code. The hint is ignored for non-string kinds and for columns
	// whose observed cardinality turns out too high to benefit (the column
	// silently stays plain). Results are bit-identical either way; only the
	// layout changes.
	Dictionary bool
	Extract    func(T) (any, bool)
}

// Registry holds the field set of one row type, preserving registration
// order for introspection and for "all fields" queries.
type Registry[T any] struct {
	byName map[string]Field[T]
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry[T any]() *Registry[T] {
	return &Registry[T]{byName: map[string]Field[T]{}}
}

// Register adds one field. Names must be unique and non-empty, the kind must
// be one of the declared kinds and the extractor must be set.
func (r *Registry[T]) Register(f Field[T]) error {
	if f.Name == "" {
		return fmt.Errorf("query: field with empty name")
	}
	if f.Extract == nil {
		return fmt.Errorf("query: field %q has no extractor", f.Name)
	}
	switch f.Kind {
	case KindString, KindInt, KindFloat, KindBool, KindTime:
	default:
		return fmt.Errorf("query: field %q has unknown kind %q", f.Name, f.Kind)
	}
	if _, dup := r.byName[f.Name]; dup {
		return fmt.Errorf("query: duplicate field %q", f.Name)
	}
	r.byName[f.Name] = f
	r.order = append(r.order, f.Name)
	return nil
}

// MustRegister is Register for statically-known field tables, where a
// registration failure is a programming error.
func (r *Registry[T]) MustRegister(f Field[T]) {
	if err := r.Register(f); err != nil {
		panic(err)
	}
}

// MarkIndexable flags the named (already registered) fields as eligible for
// secondary indexes. Splitting the hint from registration keeps the field
// tables readable: the registry is built field by field, then the consumer
// names its hot filter columns in one place.
func (r *Registry[T]) MarkIndexable(names ...string) error {
	for _, name := range names {
		f, ok := r.byName[name]
		if !ok {
			return fmt.Errorf("%w: %q (in MarkIndexable)", ErrUnknownField, name)
		}
		f.Indexable = true
		r.byName[name] = f
	}
	return nil
}

// MarkDictionary flags the named (already registered) string fields for
// dictionary encoding, following MarkIndexable's pattern of keeping layout
// hints separate from the field tables. Non-string fields are rejected; the
// encoding itself remains best-effort (see Field.Dictionary).
func (r *Registry[T]) MarkDictionary(names ...string) error {
	for _, name := range names {
		f, ok := r.byName[name]
		if !ok {
			return fmt.Errorf("%w: %q (in MarkDictionary)", ErrUnknownField, name)
		}
		if f.Kind != KindString {
			return fmt.Errorf("query: field %q is %s, not string (in MarkDictionary)", name, f.Kind)
		}
		f.Dictionary = true
		r.byName[name] = f
	}
	return nil
}

// info is the introspection view of a field.
func (f Field[T]) info() FieldInfo {
	return FieldInfo{Name: f.Name, Category: f.Category, Kind: f.Kind, Doc: f.Doc,
		Nullable: f.Nullable, Indexable: f.Indexable, Dictionary: f.Dictionary}
}

// Len returns the number of registered fields.
func (r *Registry[T]) Len() int { return len(r.order) }

// Lookup returns a field by name.
func (r *Registry[T]) Lookup(name string) (Field[T], bool) {
	f, ok := r.byName[name]
	return f, ok
}

// Fields returns every field's FieldInfo in registration order.
func (r *Registry[T]) Fields() []FieldInfo {
	out := make([]FieldInfo, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name].info())
	}
	return out
}
