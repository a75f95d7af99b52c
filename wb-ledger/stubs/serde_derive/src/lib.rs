//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for structs and enums with type and lifetime parameters, written against
//! `proc_macro` alone (no `syn`/`quote` offline). Generated impls follow the
//! published derive's calls into the data model. Supported attributes:
//! container `#[serde(transparent)]`, field `#[serde(default)]` and
//! `#[serde(default = "path")]`. Deserialization is positional (`visit_seq`),
//! which is all a non-self-describing format asks for.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, ser::expand)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, de::expand)
}

fn expand(input: TokenStream, f: fn(&Input) -> String) -> TokenStream {
    let code = match parse(input) {
        Ok(item) => f(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse()
        .expect("serde_derive stand-in generated unparsable code")
}

struct Input {
    name: String,
    /// Parameters as declared, bounds included (`'a`, `T: Clone`).
    params: Vec<Param>,
    where_clause: String,
    transparent: bool,
    data: Data,
}

struct Param {
    name: String,
    bounds: String,
    is_lifetime: bool,
}

enum Data {
    Struct(Fields),
    Enum(Vec<Variant>),
}

enum Fields {
    Named(Vec<Field>),
    Unnamed(Vec<Field>),
    Unit,
}

struct Field {
    /// Field name, or the tuple index.
    name: String,
    ty: String,
    default: Option<String>,
}

struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Default)]
struct Attrs {
    transparent: bool,
    /// `Some(expr)` yielding the default value.
    default: Option<String>,
}

fn text(tokens: &[TokenTree]) -> String {
    tokens.iter().cloned().collect::<TokenStream>().to_string()
}

/// Consume leading `#[...]` attributes, keeping what `#[serde(...)]` says.
fn take_attrs(tokens: &[TokenTree], at: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*at), tokens.get(*at + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        *at += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
            (inner.first(), inner.get(1))
        else {
            continue;
        };
        if id.to_string() != "serde" {
            continue;
        }
        let args: Vec<TokenTree> = args.stream().into_iter().collect();
        for arg in args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            match arg {
                [] => {}
                [TokenTree::Ident(k)] if k.to_string() == "transparent" => attrs.transparent = true,
                [TokenTree::Ident(k)] if k.to_string() == "default" => {
                    attrs.default = Some("::core::default::Default::default()".to_string());
                }
                [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(path)]
                    if k.to_string() == "default" && eq.as_char() == '=' =>
                {
                    let path = path.to_string();
                    attrs.default = Some(format!("{}()", path.trim_matches('"')));
                }
                other => {
                    return Err(format!(
                        "serde stand-in: unsupported attribute `{}`",
                        text(other)
                    ))
                }
            }
        }
    }
    Ok(attrs)
}

fn skip_visibility(tokens: &[TokenTree], at: &mut usize) {
    if matches!(tokens.get(*at), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *at += 1;
        if matches!(tokens.get(*at), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *at += 1;
        }
    }
}

/// Split on top-level commas; `<`/`>` nest, `->` does not close.
fn split_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0i32;
    let mut after_dash = false;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !after_dash => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    after_dash = false;
                    continue;
                }
                _ => {}
            }
            after_dash = p.as_char() == '-' && p.spacing() == Spacing::Joint;
        } else {
            after_dash = false;
        }
        parts.last_mut().expect("one part").push(t.clone());
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

fn parse_fields(group: &proc_macro::Group) -> Result<Fields, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let named = group.delimiter() == Delimiter::Brace;
    let mut fields = Vec::new();
    for (idx, part) in split_commas(&tokens).into_iter().enumerate() {
        let mut at = 0;
        let attrs = take_attrs(&part, &mut at)?;
        skip_visibility(&part, &mut at);
        let name = if named {
            let Some(TokenTree::Ident(id)) = part.get(at) else {
                return Err("serde stand-in: expected a field name".to_string());
            };
            at += 2; // name and ':'
            id.to_string()
        } else {
            idx.to_string()
        };
        fields.push(Field {
            name,
            ty: text(&part[at..]),
            default: attrs.default,
        });
    }
    Ok(if named {
        Fields::Named(fields)
    } else {
        Fields::Unnamed(fields)
    })
}

fn parse(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut at = 0;
    let attrs = take_attrs(&tokens, &mut at)?;
    skip_visibility(&tokens, &mut at);
    let kind = match tokens.get(at) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde stand-in: expected `struct` or `enum`".to_string()),
    };
    let Some(TokenTree::Ident(name)) = tokens.get(at + 1) else {
        return Err("serde stand-in: expected a type name".to_string());
    };
    at += 2;

    let mut params = Vec::new();
    if matches!(tokens.get(at), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        let open = at + 1;
        let mut depth = 1;
        while depth > 0 {
            at += 1;
            match tokens.get(at) {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
                Some(_) => {}
                None => return Err("serde stand-in: unclosed generics".to_string()),
            }
        }
        for part in split_commas(&tokens[open..at]) {
            let is_lifetime = matches!(&part[0], TokenTree::Punct(p) if p.as_char() == '\'');
            let name_len = if is_lifetime { 2 } else { 1 };
            if matches!(&part[0], TokenTree::Ident(id) if id.to_string() == "const") {
                return Err("serde stand-in: const generics are not supported".to_string());
            }
            // Drop a `= Default` tail; keep `: Bounds`.
            let eq = part
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '='))
                .unwrap_or(part.len());
            let bounds = text(&part[name_len.min(eq)..eq]);
            params.push(Param {
                name: text(&part[..name_len]).replace(' ', ""),
                bounds: bounds.trim_start_matches(':').trim().to_string(),
                is_lifetime,
            });
        }
        at += 1;
    }

    // Everything up to the body (or, for tuple structs, after it) that
    // starts with `where` is the where clause.
    let mut where_clause = String::new();
    let mut body = None;
    while let Some(t) = tokens.get(at) {
        match t {
            TokenTree::Group(g)
                if body.is_none()
                    && matches!(g.delimiter(), Delimiter::Brace | Delimiter::Parenthesis) =>
            {
                body = Some(g.clone());
                at += 1;
            }
            TokenTree::Ident(id) if id.to_string() == "where" => {
                let end = tokens[at..]
                    .iter()
                    .position(|t| {
                        matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Brace)
                            || matches!(t, TokenTree::Punct(p) if p.as_char() == ';')
                    })
                    .map_or(tokens.len(), |n| at + n);
                where_clause = text(&tokens[at + 1..end]);
                at = end;
            }
            _ => at += 1,
        }
    }

    let data = match (kind.as_str(), body) {
        ("struct", None) => Data::Struct(Fields::Unit),
        ("struct", Some(g)) => Data::Struct(parse_fields(&g)?),
        ("enum", Some(g)) => {
            let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
            let mut variants = Vec::new();
            for part in split_commas(&tokens) {
                let mut at = 0;
                take_attrs(&part, &mut at)?;
                let Some(TokenTree::Ident(vname)) = part.get(at) else {
                    return Err("serde stand-in: expected a variant name".to_string());
                };
                let fields = match part.get(at + 1) {
                    Some(TokenTree::Group(g)) => parse_fields(g)?,
                    _ => Fields::Unit, // bare, or `= discriminant`
                };
                variants.push(Variant {
                    name: vname.to_string(),
                    fields,
                });
            }
            Data::Enum(variants)
        }
        _ => return Err(format!("serde stand-in: cannot derive for `{kind}`")),
    };

    Ok(Input {
        name: name.to_string(),
        params,
        where_clause,
        transparent: attrs.transparent,
        data,
    })
}

impl Input {
    /// `<'de, 'a, T: Declared + extra>`: the declared parameters after
    /// `lead`, each type parameter also bound by `extra`.
    fn generics(&self, lead: Option<&str>, extra: Option<&str>) -> String {
        let mut parts: Vec<String> = lead.iter().map(|l| l.to_string()).collect();
        for p in &self.params {
            let mut bounds: Vec<&str> = Vec::new();
            if !p.bounds.is_empty() {
                bounds.push(&p.bounds);
            }
            if let (false, Some(extra)) = (p.is_lifetime, extra) {
                bounds.push(extra);
            }
            parts.push(if bounds.is_empty() {
                p.name.clone()
            } else {
                format!("{}: {}", p.name, bounds.join(" + "))
            });
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("<{}>", parts.join(", "))
        }
    }

    /// `'de`, bound to outlive every lifetime a `&'a T` field borrows for
    /// (as the published derive does for `&'static str` fields).
    fn de_lifetime(&self) -> String {
        let all_fields: Vec<&Fields> = match &self.data {
            Data::Struct(fields) => vec![fields],
            Data::Enum(variants) => variants.iter().map(|v| &v.fields).collect(),
        };
        let mut outlives: Vec<&str> = Vec::new();
        for fields in all_fields {
            let (Fields::Named(list) | Fields::Unnamed(list)) = fields else {
                continue;
            };
            for f in list {
                let borrowed = f.ty.strip_prefix('&').map(str::trim_start);
                if let Some(lt) = borrowed.filter(|rest| rest.starts_with('\'')) {
                    let lt = lt.split_whitespace().next().expect("lifetime token");
                    if !outlives.contains(&lt) {
                        outlives.push(lt);
                    }
                }
            }
        }
        if outlives.is_empty() {
            "'de".to_string()
        } else {
            format!("'de: {}", outlives.join(" + "))
        }
    }

    /// `<'a, T>`.
    fn type_args(&self) -> String {
        if self.params.is_empty() {
            return String::new();
        }
        let names: Vec<&str> = self.params.iter().map(|p| p.name.as_str()).collect();
        format!("<{}>", names.join(", "))
    }

    fn where_clause(&self) -> String {
        if self.where_clause.is_empty() {
            String::new()
        } else {
            format!("where {}", self.where_clause)
        }
    }
}

mod ser {
    use super::{Data, Fields, Input};

    pub fn expand(item: &Input) -> String {
        let name = &item.name;
        let body = match &item.data {
            Data::Struct(Fields::Unit) => format!("__s.serialize_unit_struct(\"{name}\")"),
            Data::Struct(Fields::Unnamed(fields)) if item.transparent && fields.len() == 1 => {
                "::serde::Serialize::serialize(&self.0, __s)".to_string()
            }
            Data::Struct(Fields::Named(fields)) if item.transparent && fields.len() == 1 => {
                format!(
                    "::serde::Serialize::serialize(&self.{}, __s)",
                    fields[0].name
                )
            }
            Data::Struct(Fields::Unnamed(fields)) if fields.len() == 1 => {
                format!("__s.serialize_newtype_struct(\"{name}\", &self.0)")
            }
            Data::Struct(Fields::Unnamed(fields)) => {
                let each: String = (0..fields.len())
                    .map(|i| format!("__st.serialize_field(&self.{i})?;"))
                    .collect();
                format!(
                    "use ::serde::ser::SerializeTupleStruct as _;\
                     let mut __st = __s.serialize_tuple_struct(\"{name}\", {})?; {each} __st.end()",
                    fields.len()
                )
            }
            Data::Struct(Fields::Named(fields)) => {
                let each: String = fields
                    .iter()
                    .map(|f| format!("__st.serialize_field(\"{0}\", &self.{0})?;", f.name))
                    .collect();
                format!(
                    "use ::serde::ser::SerializeStruct as _;\
                     let mut __st = __s.serialize_struct(\"{name}\", {})?; {each} __st.end()",
                    fields.len()
                )
            }
            Data::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .enumerate()
                    .map(|(idx, v)| {
                        let vname = &v.name;
                        match &v.fields {
                            Fields::Unit => format!(
                                "{name}::{vname} => \
                                 __s.serialize_unit_variant(\"{name}\", {idx}u32, \"{vname}\"),"
                            ),
                            Fields::Unnamed(fields) if fields.len() == 1 => format!(
                                "{name}::{vname}(__f0) => __s.serialize_newtype_variant(\
                                 \"{name}\", {idx}u32, \"{vname}\", __f0),"
                            ),
                            Fields::Unnamed(fields) => {
                                let binds: Vec<String> =
                                    (0..fields.len()).map(|i| format!("__f{i}")).collect();
                                let each: String = binds
                                    .iter()
                                    .map(|b| format!("__st.serialize_field({b})?;"))
                                    .collect();
                                format!(
                                    "{name}::{vname}({}) => {{ \
                                     use ::serde::ser::SerializeTupleVariant as _; \
                                     let mut __st = __s.serialize_tuple_variant(\
                                     \"{name}\", {idx}u32, \"{vname}\", {})?; {each} __st.end() }}",
                                    binds.join(", "),
                                    fields.len()
                                )
                            }
                            Fields::Named(fields) => {
                                let binds: Vec<&str> =
                                    fields.iter().map(|f| f.name.as_str()).collect();
                                let each: String = binds
                                    .iter()
                                    .map(|b| format!("__st.serialize_field(\"{b}\", {b})?;"))
                                    .collect();
                                format!(
                                    "{name}::{vname} {{ {} }} => {{ \
                                     use ::serde::ser::SerializeStructVariant as _; \
                                     let mut __st = __s.serialize_struct_variant(\
                                     \"{name}\", {idx}u32, \"{vname}\", {})?; {each} __st.end() }}",
                                    binds.join(", "),
                                    fields.len()
                                )
                            }
                        }
                    })
                    .collect();
                if variants.is_empty() {
                    "match *self {}".to_string()
                } else {
                    format!("match self {{ {arms} }}")
                }
            }
        };
        format!(
            "#[automatically_derived] \
             impl{} ::serde::Serialize for {name}{} {} {{ \
                 fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
                     -> ::core::result::Result<__S::Ok, __S::Error> {{ \
                     #[allow(unused_imports)] use ::serde::Serializer as _; \
                     {body} \
                 }} \
             }}",
            item.generics(None, Some("::serde::Serialize")),
            item.type_args(),
            item.where_clause(),
        )
    }
}

mod de {
    use super::{Data, Field, Fields, Input};

    /// A visitor type `vis` whose `visit_seq` reads `fields` in order and
    /// builds `ctor`; returns (definition, value expression).
    fn seq_visitor(
        item: &Input,
        vis: &str,
        what: &str,
        ctor: &str,
        fields: &Fields,
    ) -> (String, String) {
        let (list, named): (&[Field], bool) = match fields {
            Fields::Named(f) => (f, true),
            Fields::Unnamed(f) => (f, false),
            Fields::Unit => (&[], false),
        };
        let reads: String = list
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let missing = match &f.default {
                    Some(expr) => expr.clone(),
                    None => format!(
                        "return ::core::result::Result::Err(\
                         <__A::Error as ::serde::de::Error>::invalid_length({i}, &\"{what}\"))"
                    ),
                };
                format!(
                    "let __f{i}: {} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
                     ::core::option::Option::Some(__v) => __v, \
                     ::core::option::Option::None => {missing}, }};",
                    f.ty
                )
            })
            .collect();
        let build = if named {
            let inits: Vec<String> = list
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{}: __f{i}", f.name))
                .collect();
            format!("{ctor} {{ {} }}", inits.join(", "))
        } else if list.is_empty() {
            ctor.to_string()
        } else {
            let inits: Vec<String> = (0..list.len()).map(|i| format!("__f{i}")).collect();
            format!("{ctor}({})", inits.join(", "))
        };
        let name = &item.name;
        let args = item.type_args();
        let def = format!(
            "struct {vis}{decl}(::core::marker::PhantomData<fn() -> {name}{args}>); \
             impl{imp} ::serde::de::Visitor<'de> for {vis}{args} {wh} {{ \
                 type Value = {name}{args}; \
                 fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                     __f.write_str(\"{what}\") \
                 }} \
                 fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
                     -> ::core::result::Result<Self::Value, __A::Error> {{ \
                     let _ = &mut __seq; {reads} ::core::result::Result::Ok({build}) \
                 }} \
             }}",
            decl = item.generics(None, None),
            imp = item.generics(Some(&item.de_lifetime()), Some("::serde::Deserialize<'de>")),
            wh = item.where_clause(),
        );
        (def, format!("{vis}(::core::marker::PhantomData)"))
    }

    fn name_list(names: impl Iterator<Item = String>) -> String {
        let quoted: Vec<String> = names.map(|n| format!("\"{n}\"")).collect();
        format!("&[{}]", quoted.join(", "))
    }

    fn field_names(fields: &Fields) -> String {
        match fields {
            Fields::Named(f) | Fields::Unnamed(f) => name_list(f.iter().map(|f| f.name.clone())),
            Fields::Unit => "&[]".to_string(),
        }
    }

    pub fn expand(item: &Input) -> String {
        let name = &item.name;
        let body = match &item.data {
            Data::Struct(Fields::Unit) => format!(
                "struct __Unit; \
                 impl<'de> ::serde::de::Visitor<'de> for __Unit {{ \
                     type Value = {name}; \
                     fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                         __f.write_str(\"unit struct {name}\") }} \
                     fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<{name}, __E> {{ \
                         ::core::result::Result::Ok({name}) }} \
                 }} \
                 __d.deserialize_unit_struct(\"{name}\", __Unit)"
            ),
            Data::Struct(fields @ (Fields::Unnamed(list) | Fields::Named(list)))
                if item.transparent && list.len() == 1 =>
            {
                let ctor = match fields {
                    Fields::Named(_) => format!("|__v| {name} {{ {}: __v }}", list[0].name),
                    _ => name.clone(),
                };
                format!(
                    "<{} as ::serde::Deserialize<'de>>::deserialize(__d).map({ctor})",
                    list[0].ty
                )
            }
            Data::Struct(Fields::Unnamed(list)) if list.len() == 1 => {
                // Formats hand a newtype's content to `visit_newtype_struct`.
                format!(
                    "struct __Newtype{decl}(::core::marker::PhantomData<fn() -> {name}{args}>); \
                     impl{imp} ::serde::de::Visitor<'de> for __Newtype{args} {wh} {{ \
                         type Value = {name}{args}; \
                         fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                             __f.write_str(\"tuple struct {name}\") }} \
                         fn visit_newtype_struct<__E: ::serde::Deserializer<'de>>(self, __e: __E) \
                             -> ::core::result::Result<Self::Value, __E::Error> {{ \
                             <{ty} as ::serde::Deserialize<'de>>::deserialize(__e).map({name}) }} \
                         fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
                             -> ::core::result::Result<Self::Value, __A::Error> {{ \
                             match ::serde::de::SeqAccess::next_element::<{ty}>(&mut __seq)? {{ \
                                 ::core::option::Option::Some(__v) => ::core::result::Result::Ok({name}(__v)), \
                                 ::core::option::Option::None => ::core::result::Result::Err( \
                                     <__A::Error as ::serde::de::Error>::invalid_length(0, &\"tuple struct {name}\")), \
                             }} \
                         }} \
                     }} \
                     __d.deserialize_newtype_struct(\"{name}\", __Newtype(::core::marker::PhantomData))",
                    decl = item.generics(None, None),
                    args = item.type_args(),
                    imp = item.generics(Some(&item.de_lifetime()), Some("::serde::Deserialize<'de>")),
                    wh = item.where_clause(),
                    ty = list[0].ty,
                )
            }
            Data::Struct(fields @ Fields::Unnamed(list)) => {
                let what = format!("tuple struct {name}");
                let (def, vis) = seq_visitor(item, "__Visitor", &what, name, fields);
                format!(
                    "{def} __d.deserialize_tuple_struct(\"{name}\", {}, {vis})",
                    list.len()
                )
            }
            Data::Struct(fields @ Fields::Named(_)) => {
                let (def, vis) =
                    seq_visitor(item, "__Visitor", &format!("struct {name}"), name, fields);
                format!(
                    "{def} __d.deserialize_struct(\"{name}\", {}, {vis})",
                    field_names(fields)
                )
            }
            Data::Enum(variants) => {
                let mut defs = String::new();
                let mut arms = String::new();
                for (idx, v) in variants.iter().enumerate() {
                    let vname = &v.name;
                    let ctor = format!("{name}::{vname}");
                    match &v.fields {
                        Fields::Unit => arms.push_str(&format!(
                            "{idx}u32 => {{ ::serde::de::VariantAccess::unit_variant(__var)?; \
                             ::core::result::Result::Ok({ctor}) }}"
                        )),
                        Fields::Unnamed(list) if list.len() == 1 => arms.push_str(&format!(
                            "{idx}u32 => ::serde::de::VariantAccess::newtype_variant::<{}>(__var)\
                             .map({ctor}),",
                            list[0].ty
                        )),
                        fields => {
                            let vis_name = format!("__Variant{idx}");
                            let what = format!("variant {name}::{vname}");
                            let (def, vis) = seq_visitor(item, &vis_name, &what, &ctor, fields);
                            defs.push_str(&def);
                            arms.push_str(&match fields {
                                Fields::Unnamed(list) => format!(
                                    "{idx}u32 => ::serde::de::VariantAccess::tuple_variant(\
                                     __var, {}, {vis}),",
                                    list.len()
                                ),
                                _ => format!(
                                    "{idx}u32 => ::serde::de::VariantAccess::struct_variant(\
                                     __var, {}, {vis}),",
                                    field_names(fields)
                                ),
                            });
                        }
                    }
                }
                let variant_names = name_list(variants.iter().map(|v| v.name.clone()));
                let by_name: String = variants
                    .iter()
                    .enumerate()
                    .map(|(idx, v)| format!("\"{}\" => ::core::result::Result::Ok(__Tag({idx}u32)),", v.name))
                    .collect();
                let args = item.type_args();
                format!(
                    "const __VARIANTS: &[&str] = {variant_names}; \
                     struct __Tag(u32); \
                     impl<'de> ::serde::Deserialize<'de> for __Tag {{ \
                         fn deserialize<__T: ::serde::Deserializer<'de>>(__t: __T) \
                             -> ::core::result::Result<Self, __T::Error> {{ \
                             struct __TagVisitor; \
                             impl<'de> ::serde::de::Visitor<'de> for __TagVisitor {{ \
                                 type Value = __Tag; \
                                 fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                                     __f.write_str(\"variant identifier\") }} \
                                 fn visit_u64<__E: ::serde::de::Error>(self, __v: u64) \
                                     -> ::core::result::Result<__Tag, __E> {{ \
                                     if __v < __VARIANTS.len() as u64 {{ \
                                         ::core::result::Result::Ok(__Tag(__v as u32)) \
                                     }} else {{ \
                                         ::core::result::Result::Err(__E::custom(::core::format_args!( \
                                             \"invalid variant index {{}} for enum {name}\", __v))) \
                                     }} \
                                 }} \
                                 fn visit_str<__E: ::serde::de::Error>(self, __v: &str) \
                                     -> ::core::result::Result<__Tag, __E> {{ \
                                     match __v {{ {by_name} \
                                         _ => ::core::result::Result::Err(__E::unknown_variant(__v, __VARIANTS)), }} \
                                 }} \
                             }} \
                             __t.deserialize_identifier(__TagVisitor) \
                         }} \
                     }} \
                     {defs} \
                     struct __Visitor{decl}(::core::marker::PhantomData<fn() -> {name}{args}>); \
                     impl{imp} ::serde::de::Visitor<'de> for __Visitor{args} {wh} {{ \
                         type Value = {name}{args}; \
                         fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                             __f.write_str(\"enum {name}\") }} \
                         fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A) \
                             -> ::core::result::Result<Self::Value, __A::Error> {{ \
                             let (__tag, __var): (__Tag, __A::Variant) = \
                                 ::serde::de::EnumAccess::variant(__data)?; \
                             let _ = &__var; \
                             match __tag.0 {{ {arms} \
                                 _ => ::core::result::Result::Err(<__A::Error as ::serde::de::Error>::custom( \
                                     \"variant index out of range for enum {name}\")), }} \
                         }} \
                     }} \
                     __d.deserialize_enum(\"{name}\", __VARIANTS, __Visitor(::core::marker::PhantomData))",
                    decl = item.generics(None, None),
                    imp = item.generics(Some(&item.de_lifetime()), Some("::serde::Deserialize<'de>")),
                    wh = item.where_clause(),
                )
            }
        };
        format!(
            "#[automatically_derived] \
             impl{} ::serde::Deserialize<'de> for {name}{} {} {{ \
                 fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
                     -> ::core::result::Result<Self, __D::Error> {{ \
                     #[allow(unused_imports)] use ::serde::de::Error as _; \
                     {body} \
                 }} \
             }}",
            item.generics(Some(&item.de_lifetime()), Some("::serde::Deserialize<'de>")),
            item.type_args(),
            item.where_clause(),
        )
    }
}
