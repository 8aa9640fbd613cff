//! Offline stand-in for `serde_derive`. Expands `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` against the value-tree traits in the companion
//! `serde` shim, producing the same externally-tagged shape real serde
//! emits for the forms this workspace uses: named / tuple / unit structs
//! and enums with unit, newtype, tuple, or struct variants. The only
//! field attribute honoured is `#[serde(skip)]` (omitted on serialize,
//! `Default::default()` on deserialize); generics are rejected.
//!
//! Each derive emits both paths from the one parsed item: `to_value` /
//! `from_value` through the `Value` tree, and `write_to` / `read_from`
//! straight against a `Sink` / `Source`, in the same shape and key order.
//!
//! Implementation note: the input item is parsed directly from the raw
//! `TokenStream` (no syn/quote in the container), and the impl is built
//! as a source string and re-parsed — only field names, arities, and skip
//! flags are needed, never field types, because the generated code leans
//! on inference through `::serde::from_field` / `from_value`.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write as _;
use std::iter::Peekable;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

// ------------------------------------------------------------- item model

struct Item {
    name: String,
    body: Body,
}

enum Body {
    UnitStruct,
    /// Tuple struct with `arity` fields (1 = newtype).
    TupleStruct {
        arity: usize,
    },
    NamedStruct {
        fields: Vec<Field>,
    },
    Enum {
        variants: Vec<Variant>,
    },
}

struct Field {
    name: String,
    skip: bool,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    /// `arity` unnamed fields (1 = newtype).
    Tuple(usize),
    Struct(Vec<Field>),
}

// ---------------------------------------------------------------- parsing

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// Consumes leading `#[...]` attributes; returns whether any was
/// `#[serde(skip)]`. Any other `#[serde(...)]` content is rejected.
fn eat_attrs(tokens: &mut Tokens) -> bool {
    let mut skip = false;
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(g)) = tokens.next() else {
            panic!("expected [...] after #");
        };
        let mut inner = g.stream().into_iter();
        if matches!(&inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            let Some(TokenTree::Group(args)) = inner.next() else {
                panic!("expected #[serde(...)]");
            };
            let args: Vec<String> = args.stream().into_iter().map(|t| t.to_string()).collect();
            if args == ["skip"] {
                skip = true;
            } else {
                panic!("unsupported serde attribute #[serde({})]", args.join(""));
            }
        }
    }
    skip
}

/// Consumes `pub`, `pub(...)` if present.
fn eat_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

fn expect_ident(tokens: &mut Tokens, what: &str) -> String {
    match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected {what}, found {other:?}"),
    }
}

/// Skips one field's type: everything up to a top-level `,` (or the end),
/// where "top-level" tracks `<`/`>` nesting since angle brackets are plain
/// punctuation in a token stream.
fn skip_type(tokens: &mut Tokens) {
    let mut depth = 0i32;
    while let Some(t) = tokens.peek() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => return,
            _ => {}
        }
        tokens.next();
    }
}

/// Parses `{ a: T, #[serde(skip)] b: U, .. }` field lists.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let skip = eat_attrs(&mut tokens);
        eat_visibility(&mut tokens);
        let name = expect_ident(&mut tokens, "field name");
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        skip_type(&mut tokens);
        tokens.next(); // separating comma, if any
        fields.push(Field { name, skip });
    }
    fields
}

/// Counts fields of a `( T, U, .. )` list; `#[serde(skip)]` is not
/// supported in tuple position.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut arity = 0;
    while tokens.peek().is_some() {
        if eat_attrs(&mut tokens) {
            panic!("#[serde(skip)] is not supported on tuple fields");
        }
        eat_visibility(&mut tokens);
        skip_type(&mut tokens);
        tokens.next();
        arity += 1;
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        eat_attrs(&mut tokens);
        let name = expect_ident(&mut tokens, "variant name");
        let kind = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                tokens.next();
                VariantKind::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                tokens.next();
                VariantKind::Tuple(arity)
            }
            _ => VariantKind::Unit,
        };
        tokens.next(); // separating comma, if any
        variants.push(Variant { name, kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    eat_attrs(&mut tokens);
    eat_visibility(&mut tokens);
    let keyword = expect_ident(&mut tokens, "`struct` or `enum`");
    let name = expect_ident(&mut tokens, "type name");
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("the serde shim derive does not support generic types (on `{name}`)");
    }
    let body = match keyword.as_str() {
        "struct" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Body::NamedStruct {
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct {
                    arity: count_tuple_fields(g.stream()),
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => panic!("unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Body::Enum {
                variants: parse_variants(g.stream()),
            },
            other => panic!("expected enum body for `{name}`, found {other:?}"),
        },
        other => panic!("cannot derive for `{other} {name}`"),
    };
    Item { name, body }
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::UnitStruct => "::serde::Value::Null".to_string(),
        Body::TupleStruct { arity: 1 } => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::TupleStruct { arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Body::NamedStruct { fields } => {
            let pairs: Vec<String> = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| {
                    format!(
                        "(\"{0}\".to_string(), ::serde::Serialize::to_value(&self.{0}))",
                        f.name
                    )
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
        }
        Body::Enum { variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        let _ = write!(
                            arms,
                            "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),"
                        );
                    }
                    VariantKind::Tuple(1) => {
                        let _ = write!(
                            arms,
                            "{name}::{vn}(__f0) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Serialize::to_value(__f0))]),"
                        );
                    }
                    VariantKind::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        let _ = write!(
                            arms,
                            "{name}::{vn}({}) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Array(vec![{}]))]),",
                            binds.join(", "),
                            vals.join(", ")
                        );
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                if f.skip {
                                    format!("{}: _", f.name)
                                } else {
                                    f.name.clone()
                                }
                            })
                            .collect();
                        let pairs: Vec<String> = fields
                            .iter()
                            .filter(|f| !f.skip)
                            .map(|f| {
                                format!(
                                    "(\"{0}\".to_string(), ::serde::Serialize::to_value({0}))",
                                    f.name
                                )
                            })
                            .collect();
                        let _ = write!(
                            arms,
                            "{name}::{vn} {{ {} }} => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Object(vec![{}]))]),",
                            binds.join(", "),
                            pairs.join(", ")
                        );
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    let write = gen_write(item);
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
             fn write_to<__S: ::serde::Sink + ?Sized>(&self, __sink: &mut __S) {{ {write} }}\n\
         }}"
    )
}

/// Writes the non-skipped `fields` as an object; `access` turns a field
/// name into an expression of a reference to it.
fn write_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let kept: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let mut out = format!("__sink.object({});", kept.len());
    for f in kept {
        let _ = write!(
            out,
            "__sink.key(\"{0}\"); ::serde::Serialize::write_to({1}, __sink);",
            f.name,
            access(&f.name)
        );
    }
    out
}

/// Writes `binds` (references) as an array.
fn write_items(binds: &[String]) -> String {
    let mut out = format!("__sink.array({});", binds.len());
    for b in binds {
        let _ = write!(out, "::serde::Serialize::write_to({b}, __sink);");
    }
    out
}

fn gen_write(item: &Item) -> String {
    let name = &item.name;
    match &item.body {
        Body::UnitStruct => "__sink.null();".to_string(),
        Body::TupleStruct { arity: 1 } => "::serde::Serialize::write_to(&self.0, __sink);".into(),
        Body::TupleStruct { arity } => write_items(
            &(0..*arity)
                .map(|i| format!("&self.{i}"))
                .collect::<Vec<_>>(),
        ),
        Body::NamedStruct { fields } => write_fields(fields, |f| format!("&self.{f}")),
        Body::Enum { variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let tagged = format!("__sink.object(1); __sink.key(\"{vn}\");");
                match &v.kind {
                    VariantKind::Unit => {
                        let _ = write!(arms, "{name}::{vn} => __sink.str(\"{vn}\"),");
                    }
                    VariantKind::Tuple(1) => {
                        let _ = write!(
                            arms,
                            "{name}::{vn}(__f0) => {{ {tagged} ::serde::Serialize::write_to(__f0, __sink); }}"
                        );
                    }
                    VariantKind::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        let _ = write!(
                            arms,
                            "{name}::{vn}({}) => {{ {tagged} {} }}",
                            binds.join(", "),
                            write_items(&binds)
                        );
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                if f.skip {
                                    format!("{}: _", f.name)
                                } else {
                                    f.name.clone()
                                }
                            })
                            .collect();
                        let _ = write!(
                            arms,
                            "{name}::{vn} {{ {} }} => {{ {tagged} {} }}",
                            binds.join(", "),
                            write_fields(fields, str::to_string)
                        );
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::UnitStruct => format!(
            "match __v {{\n\
                 ::serde::Value::Null => Ok({name}),\n\
                 _ => Err(::serde::DeError::expected(\"null for unit struct {name}\")),\n\
             }}"
        ),
        Body::TupleStruct { arity: 1 } => {
            format!("Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Body::TupleStruct { arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "let __items = __v.as_array().ok_or_else(|| ::serde::DeError::expected(\"array for {name}\"))?;\n\
                 if __items.len() != {arity} {{\n\
                     return Err(::serde::DeError::expected(\"array of {arity} for {name}\"));\n\
                 }}\n\
                 Ok({name}({}))",
                items.join(", ")
            )
        }
        Body::NamedStruct { fields } => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    if f.skip {
                        format!("{}: ::core::default::Default::default()", f.name)
                    } else {
                        format!("{0}: ::serde::from_field(__pairs, \"{0}\")?", f.name)
                    }
                })
                .collect();
            format!(
                "let __pairs = __v.as_object().ok_or_else(|| ::serde::DeError::expected(\"object for {name}\"))?;\n\
                 Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Body::Enum { variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        let _ = write!(unit_arms, "\"{vn}\" => Ok({name}::{vn}),");
                    }
                    VariantKind::Tuple(1) => {
                        let _ = write!(
                            tagged_arms,
                            "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::from_value(_inner)?)),"
                        );
                    }
                    VariantKind::Tuple(arity) => {
                        let items: Vec<String> = (0..*arity)
                            .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                            .collect();
                        let _ = write!(
                            tagged_arms,
                            "\"{vn}\" => {{\n\
                                 let __items = _inner.as_array().ok_or_else(|| ::serde::DeError::expected(\"array for {name}::{vn}\"))?;\n\
                                 if __items.len() != {arity} {{\n\
                                     return Err(::serde::DeError::expected(\"array of {arity} for {name}::{vn}\"));\n\
                                 }}\n\
                                 Ok({name}::{vn}({}))\n\
                             }}",
                            items.join(", ")
                        );
                    }
                    VariantKind::Struct(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                if f.skip {
                                    format!("{}: ::core::default::Default::default()", f.name)
                                } else {
                                    format!("{0}: ::serde::from_field(__fields, \"{0}\")?", f.name)
                                }
                            })
                            .collect();
                        let _ = write!(
                            tagged_arms,
                            "\"{vn}\" => {{\n\
                                 let __fields = _inner.as_object().ok_or_else(|| ::serde::DeError::expected(\"object for {name}::{vn}\"))?;\n\
                                 Ok({name}::{vn} {{ {} }})\n\
                             }}",
                            inits.join(", ")
                        );
                    }
                }
            }
            format!(
                "match __v {{\n\
                     ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {unit_arms}\n\
                         __other => Err(::serde::DeError(format!(\"unknown {name} variant `{{__other}}`\"))),\n\
                     }},\n\
                     ::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                         let (__tag, _inner) = &__pairs[0];\n\
                         match __tag.as_str() {{\n\
                             {tagged_arms}\n\
                             __other => Err(::serde::DeError(format!(\"unknown {name} variant `{{__other}}`\"))),\n\
                         }}\n\
                     }}\n\
                     _ => Err(::serde::DeError::expected(\"string or single-key object for {name}\")),\n\
                 }}"
            )
        }
    };
    let read = gen_read(item);
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::DeError> {{ {body} }}\n\
             fn read_from<__S: ::serde::Source + ?Sized>(__src: &mut __S) -> Result<Self, __S::Error> {{ {read} }}\n\
         }}"
    )
}

/// An expression reading an object into `ctor {{ fields }}`. Keys may come
/// in any order; unknown keys are skipped and the first of two equal keys
/// wins, as `from_field` finds it.
fn read_fields(ctor: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        if f.skip {
            inits.push(format!("{}: ::core::default::Default::default()", f.name));
            continue;
        }
        let _ = write!(slots, "let mut __f{i} = ::core::option::Option::None;");
        let _ = write!(
            arms,
            "b\"{0}\" if __f{i}.is_none() => __f{i} = ::core::option::Option::Some(::serde::Deserialize::read_from(__src)?),",
            f.name
        );
        inits.push(format!(
            "{0}: __f{i}.ok_or_else(|| ::serde::missing_field(\"{0}\"))?",
            f.name
        ));
    }
    format!(
        "{{\n\
             let ::serde::Token::Object(__n) = ::serde::Source::token(__src)? else {{\n\
                 return Err(::serde::expected(\"object for {ctor}\"));\n\
             }};\n\
             {slots}\n\
             for _ in 0..__n {{\n\
                 match ::serde::Source::key(__src)? {{\n\
                     {arms}\n\
                     __k => {{\n\
                         ::serde::key_str::<__S::Error>(__k)?;\n\
                         ::serde::Source::skip(__src)?;\n\
                     }}\n\
                 }}\n\
             }}\n\
             ::serde::Source::end(__src);\n\
             {ctor} {{ {} }}\n\
         }}",
        inits.join(", ")
    )
}

/// An expression reading an array of exactly `arity` values into
/// `ctor(..)`.
fn read_items(ctor: &str, arity: usize) -> String {
    let items: Vec<&str> = (0..arity)
        .map(|_| "::serde::Deserialize::read_from(__src)?")
        .collect();
    format!(
        "{{\n\
             match ::serde::Source::token(__src)? {{\n\
                 ::serde::Token::Array({arity}) => {{}}\n\
                 ::serde::Token::Array(_) => return Err(::serde::expected(\"array of {arity} for {ctor}\")),\n\
                 _ => return Err(::serde::expected(\"array for {ctor}\")),\n\
             }}\n\
             let __v = {ctor}({});\n\
             ::serde::Source::end(__src);\n\
             __v\n\
         }}",
        items.join(", ")
    )
}

fn gen_read(item: &Item) -> String {
    let name = &item.name;
    match &item.body {
        Body::UnitStruct => format!(
            "match ::serde::Source::token(__src)? {{\n\
                 ::serde::Token::Null => Ok({name}),\n\
                 _ => Err(::serde::expected(\"null for unit struct {name}\")),\n\
             }}"
        ),
        Body::TupleStruct { arity: 1 } => {
            format!("Ok({name}(::serde::Deserialize::read_from(__src)?))")
        }
        Body::TupleStruct { arity } => format!("Ok({})", read_items(name, *arity)),
        Body::NamedStruct { fields } => format!("Ok({})", read_fields(name, fields)),
        Body::Enum { variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                match &v.kind {
                    VariantKind::Unit => {
                        let _ = write!(unit_arms, "\"{vn}\" => Ok({ctor}),");
                    }
                    VariantKind::Tuple(1) => {
                        let _ = write!(
                            tagged_arms,
                            "b\"{vn}\" => Ok({ctor}(::serde::Deserialize::read_from(__src)?)),"
                        );
                    }
                    VariantKind::Tuple(arity) => {
                        let _ = write!(
                            tagged_arms,
                            "b\"{vn}\" => Ok({}),",
                            read_items(&ctor, *arity)
                        );
                    }
                    VariantKind::Struct(fields) => {
                        let _ = write!(
                            tagged_arms,
                            "b\"{vn}\" => Ok({}),",
                            read_fields(&ctor, fields)
                        );
                    }
                }
            }
            format!(
                "match ::serde::Source::token(__src)? {{\n\
                     ::serde::Token::Str(__s) => match __s {{\n\
                         {unit_arms}\n\
                         __other => Err(::serde::DeError(format!(\"unknown {name} variant `{{__other}}`\")).into()),\n\
                     }},\n\
                     ::serde::Token::Object(1) => {{\n\
                         let __v: Self = match ::serde::Source::key(__src)? {{\n\
                             {tagged_arms}\n\
                             __other => Err(::serde::DeError(format!(\"unknown {name} variant `{{}}`\", ::std::string::String::from_utf8_lossy(__other)))),\n\
                         }}?;\n\
                         ::serde::Source::end(__src);\n\
                         Ok(__v)\n\
                     }}\n\
                     _ => Err(::serde::expected(\"string or single-key object for {name}\")),\n\
                 }}"
            )
        }
    }
}
