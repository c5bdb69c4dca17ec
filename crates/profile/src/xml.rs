//! A minimal XML document model, writer and parser.
//!
//! The LFI fault-profile and fault-scenario formats are tiny XML dialects
//! (§3.3, §4).  Rather than pulling in an external XML dependency, this
//! module implements exactly the subset those dialects need: elements,
//! attributes, character data, comments, processing instructions and the five
//! predefined entities.  It is shared by `lfi-profile` and `lfi-scenario`.

use std::error::Error;
use std::fmt;

/// The deepest element nesting [`parse`] accepts; one level deeper is
/// [`XmlError::TooDeep`].
///
/// The parser recurses once per level, so without a bound a document of a
/// few hundred thousand nested elements overflows the thread's stack and
/// aborts the process.  Every document the workspace writes nests at most
/// four levels (`<plan>`/`<function>`/`<choice>`/`<side-effect>`, and
/// `<profile>`/`<function>`/`<error-codes>`/`<side-effect>`), so 256 leaves
/// ample room for hand-written scenarios while keeping the parse well
/// inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 256;

/// A node in an XML tree: an element or character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(XmlElement),
    /// Character data (entity-decoded).
    Text(String),
}

/// An XML element: name, attributes and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// Element name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    /// Creates an element with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, name: impl Into<String>, value: impl fmt::Display) -> Self {
        self.attributes.push((name.into(), value.to_string()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, child: XmlElement) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Adds character data (builder style).
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Iterates over child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.children.iter().filter_map(move |c| match c {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// Returns the first child element with the given name, if any.
    pub fn first_child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find_map(|c| match c {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// Concatenated character data of this element (direct children only),
    /// trimmed.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for child in &self.children {
            if let XmlNode::Text(t) = child {
                out.push_str(t);
            }
        }
        out.trim().to_owned()
    }

    /// Serializes the element with two-space indentation.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (name, value) in &self.attributes {
            out.push(' ');
            out.push_str(name);
            out.push_str("=\"");
            out.push_str(&escape(value));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str(" />\n");
            return;
        }
        let only_text = self.children.iter().all(|c| matches!(c, XmlNode::Text(_)));
        out.push('>');
        if only_text {
            out.push_str(&escape(&self.text_content()));
        } else {
            out.push('\n');
            for child in &self.children {
                match child {
                    XmlNode::Element(e) => e.write_into(out, depth + 1),
                    XmlNode::Text(t) => {
                        let trimmed = t.trim();
                        if !trimmed.is_empty() {
                            out.push_str(&"  ".repeat(depth + 1));
                            out.push_str(&escape(trimmed));
                            out.push('\n');
                        }
                    }
                }
            }
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

/// Errors reported by the XML parser.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XmlError {
    /// The document ended unexpectedly.
    UnexpectedEof {
        /// Byte offset of the end of the document.
        offset: usize,
    },
    /// A syntax error at the given byte offset.
    Syntax {
        /// Byte offset of the error.
        offset: usize,
        /// Short description of what was expected.
        expected: &'static str,
    },
    /// A closing tag did not match the element being closed.
    MismatchedTag {
        /// Byte offset of the closing tag.
        offset: usize,
        /// Name of the element that was open.
        open: String,
        /// Name found in the closing tag.
        close: String,
    },
    /// An unknown entity reference was encountered.
    UnknownEntity {
        /// Byte offset of the entity's `&`.
        offset: usize,
        /// The entity text, without `&` and `;`.
        entity: String,
    },
    /// The document contains no root element.
    NoRootElement,
    /// Content was found after the root element closed.
    TrailingContent {
        /// Byte offset of the trailing content.
        offset: usize,
    },
    /// An element opens deeper than [`MAX_DEPTH`] levels.
    TooDeep {
        /// Byte offset of the element that exceeds the bound.
        offset: usize,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { offset } => write!(f, "unexpected end of document at byte {offset}"),
            XmlError::Syntax { offset, expected } => write!(f, "syntax error at byte {offset}: expected {expected}"),
            XmlError::MismatchedTag { offset, open, close } => {
                write!(f, "mismatched closing tag at byte {offset}: <{open}> closed by </{close}>")
            }
            XmlError::UnknownEntity { offset, entity } => write!(f, "unknown entity &{entity}; at byte {offset}"),
            XmlError::NoRootElement => write!(f, "document has no root element"),
            XmlError::TrailingContent { offset } => write!(f, "content after root element at byte {offset}"),
            XmlError::TooDeep { offset } => {
                write!(f, "element at byte {offset} nests deeper than {MAX_DEPTH} levels")
            }
        }
    }
}

impl Error for XmlError {}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, prefix: &str) -> bool {
        self.bytes[self.pos..].starts_with(prefix.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn eof(&self) -> XmlError {
        XmlError::UnexpectedEof { offset: self.bytes.len() }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.consume_until("?>")?;
            } else if self.starts_with("<!--") {
                self.consume_until("-->")?;
            } else if self.starts_with("<!") {
                self.consume_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn consume_until(&mut self, end: &str) -> Result<(), XmlError> {
        let haystack = &self.bytes[self.pos..];
        match haystack.windows(end.len()).position(|w| w == end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.eof()),
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::Syntax { offset: start, expected: "a name" });
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_attribute_value(&mut self) -> Result<String, XmlError> {
        let quote = self.peek().ok_or_else(|| self.eof())?;
        if quote != b'"' && quote != b'\'' {
            return Err(XmlError::Syntax { offset: self.pos, expected: "a quoted attribute value" });
        }
        self.bump(1);
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                self.bump(1);
                return unescape(&raw, start);
            }
            self.pos += 1;
        }
        Err(self.eof())
    }

    /// Parses the element at the cursor, `depth` levels below the document
    /// (the root is level 1).
    fn parse_element(&mut self, depth: usize) -> Result<XmlElement, XmlError> {
        if depth > MAX_DEPTH {
            return Err(XmlError::TooDeep { offset: self.pos });
        }
        if self.peek() != Some(b'<') {
            return Err(XmlError::Syntax { offset: self.pos, expected: "'<'" });
        }
        self.bump(1);
        let name = self.parse_name()?;
        let mut element = XmlElement::new(name);

        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(XmlError::Syntax { offset: self.pos, expected: "'/>'" });
                    }
                    self.bump(2);
                    return Ok(element);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(XmlError::Syntax { offset: self.pos, expected: "'='" });
                    }
                    self.bump(1);
                    self.skip_whitespace();
                    let value = self.parse_attribute_value()?;
                    element.attributes.push((attr_name, value));
                }
                None => return Err(self.eof()),
            }
        }

        // Children until the matching closing tag.
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.eof());
            }
            if self.starts_with("</") {
                let offset = self.pos;
                self.bump(2);
                let close = self.parse_name()?;
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(XmlError::Syntax { offset: self.pos, expected: "'>'" });
                }
                self.bump(1);
                if close != element.name {
                    return Err(XmlError::MismatchedTag { offset, open: element.name, close });
                }
                return Ok(element);
            } else if self.starts_with("<!--") {
                self.consume_until("-->")?;
            } else if self.starts_with("<?") {
                self.consume_until("?>")?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element(depth + 1)?;
                element.children.push(XmlNode::Element(child));
            } else {
                let start = self.pos;
                while self.peek().is_some() && self.peek() != Some(b'<') {
                    self.pos += 1;
                }
                let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                let text = unescape(&raw, start)?;
                if !text.trim().is_empty() {
                    element.children.push(XmlNode::Text(text));
                }
            }
        }
    }
}

/// Resolves the entities of `s`, which starts at byte `base` of the
/// document.
fn unescape(s: &str, base: usize) -> Result<String, XmlError> {
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((at, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let unknown = |entity: &str| XmlError::UnknownEntity { offset: base + at, entity: entity.to_owned() };
        let mut entity = String::new();
        let mut closed = false;
        for (_, e) in chars.by_ref() {
            if e == ';' {
                closed = true;
                break;
            }
            entity.push(e);
        }
        if !closed {
            return Err(unknown(&entity));
        }
        match entity.as_str() {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            other => {
                if let Some(hex) = other.strip_prefix("#x") {
                    let code =
                        u32::from_str_radix(hex, 16).ok().and_then(char::from_u32).ok_or_else(|| unknown(other))?;
                    out.push(code);
                } else if let Some(dec) = other.strip_prefix('#') {
                    let code = dec.parse::<u32>().ok().and_then(char::from_u32).ok_or_else(|| unknown(other))?;
                    out.push(code);
                } else {
                    return Err(unknown(other));
                }
            }
        }
    }
    Ok(out)
}

/// Parses an XML document and returns its root element.
///
/// # Errors
///
/// Returns [`XmlError`] when the document is malformed.
pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    parser.skip_misc()?;
    if parser.peek() != Some(b'<') {
        return Err(XmlError::NoRootElement);
    }
    let root = parser.parse_element(1)?;
    parser.skip_misc()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(XmlError::TrailingContent { offset: parser.pos });
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_serializes() {
        let doc = XmlElement::new("profile")
            .child(
                XmlElement::new("function").attr("name", "close").child(
                    XmlElement::new("error-codes")
                        .attr("retval", -1)
                        .child(XmlElement::new("side-effect").attr("type", "TLS").text("-9")),
                ),
            )
            .child(XmlElement::new("empty"));
        let xml = doc.to_xml_string();
        assert!(xml.contains("<?xml"));
        assert!(xml.contains("retval=\"-1\""));
        assert!(xml.contains("<empty />"));
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parses_the_paper_profile_snippet() {
        let xml = r#"
            <profile>
              <function name="close">
                <error-codes retval="-1">
                  <side-effect type="TLS" module="libc.so.6" offset="12FFF4">-9</side-effect>
                  <side-effect type="TLS" module="libc.so.6" offset="12FFF4">-5</side-effect>
                </error-codes>
              </function>
            </profile>"#;
        let root = parse(xml).unwrap();
        assert_eq!(root.name, "profile");
        let function = root.first_child("function").unwrap();
        assert_eq!(function.attribute("name"), Some("close"));
        let codes = function.first_child("error-codes").unwrap();
        assert_eq!(codes.attribute("retval"), Some("-1"));
        let effects: Vec<_> = codes.children_named("side-effect").collect();
        assert_eq!(effects.len(), 2);
        assert_eq!(effects[0].text_content(), "-9");
        assert_eq!(effects[0].attribute("offset"), Some("12FFF4"));
    }

    #[test]
    fn parses_the_paper_plan_snippet() {
        let xml = r#"
            <plan>
              <function name="readdir64" inject="5" retval="0" errno="EBADF" calloriginal="false" />
              <function name="read" inject="20" calloriginal="true">
                <modify argument="3" op="sub" value="10" />
              </function>
            </plan>"#;
        let root = parse(xml).unwrap();
        let functions: Vec<_> = root.children_named("function").collect();
        assert_eq!(functions.len(), 2);
        assert_eq!(functions[0].attribute("errno"), Some("EBADF"));
        assert_eq!(functions[1].first_child("modify").unwrap().attribute("op"), Some("sub"));
    }

    #[test]
    fn entities_round_trip() {
        let doc = XmlElement::new("t").attr("a", "x<y&\"z'").text("a<b>&c");
        let xml = doc.to_xml_string();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed.attribute("a"), Some("x<y&\"z'"));
        assert_eq!(parsed.text_content(), "a<b>&c");
    }

    #[test]
    fn numeric_entities_are_decoded() {
        let root = parse("<t>&#65;&#x42;</t>").unwrap();
        assert_eq!(root.text_content(), "AB");
    }

    #[test]
    fn comments_and_declarations_are_skipped() {
        let root = parse("<?xml version=\"1.0\"?><!-- hi --><t><!-- inner --><u /></t><!-- bye -->").unwrap();
        assert_eq!(root.name, "t");
        assert!(root.first_child("u").is_some());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(matches!(parse(""), Err(XmlError::NoRootElement)));
        assert!(matches!(parse("<a><b></a>"), Err(XmlError::MismatchedTag { offset: 6, .. })));
        assert_eq!(parse("<a"), Err(XmlError::UnexpectedEof { offset: 2 }));
        assert!(matches!(parse("<a>text"), Err(XmlError::UnexpectedEof { offset: 7 })));
        assert!(parse("<a x=3></a>").is_err());
        assert!(matches!(parse("<a>&bogus;</a>"), Err(XmlError::UnknownEntity { offset: 3, .. })));
        assert!(matches!(parse("<a b='x&q;'/>"), Err(XmlError::UnknownEntity { offset: 7, .. })));
        assert!(matches!(parse("<a /><b />"), Err(XmlError::TrailingContent { .. })));
        assert!(parse("<a></a junk>").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        let deepest = parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deepest.name, "a");
        // The first element past the bound is named by its byte offset.
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), Err(XmlError::TooDeep { offset: 3 * MAX_DEPTH }));
    }

    #[test]
    fn single_quoted_attributes_are_accepted() {
        let root = parse("<t a='hello' />").unwrap();
        assert_eq!(root.attribute("a"), Some("hello"));
    }

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            XmlError::UnexpectedEof { offset: 2 },
            XmlError::Syntax { offset: 3, expected: "x" },
            XmlError::MismatchedTag { offset: 6, open: "a".into(), close: "b".into() },
            XmlError::UnknownEntity { offset: 3, entity: "q".into() },
            XmlError::NoRootElement,
            XmlError::TrailingContent { offset: 9 },
            XmlError::TooDeep { offset: 4 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
