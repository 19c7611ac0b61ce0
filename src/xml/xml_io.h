#ifndef RTP_XML_XML_IO_H_
#define RTP_XML_XML_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/document.h"

namespace rtp::xml {

// Parses an XML subset: elements, attributes, text content, comments and
// processing instructions (both skipped), and the five predefined entities.
// Whitespace-only text between elements is dropped. The top-level element
// becomes the single child of the "/" root node per the paper's convention.
// Attributes become '@'-labeled leaf children preceding element content.
StatusOr<Document> ParseXml(Alphabet* alphabet, std::string_view input);

// Serializes the document back to XML text (inverse of ParseXml for
// documents expressible in XML: '@'-labeled children must precede other
// children). `indent` pretty-prints with 2-space indentation.
std::string WriteXml(const Document& doc, bool indent = true);

// Serializes the subtree rooted at `n`: an element as XML, the root as
// its children, an attribute or text leaf as its raw value.
std::string WriteXmlSubtree(const Document& doc, NodeId n, bool indent = true);

// The same bytes, appended to `out`, so a caller that renders many
// subtrees can reuse one buffer.
void AppendXmlSubtree(const Document& doc, NodeId n, bool indent,
                      std::string* out);

}  // namespace rtp::xml

#endif  // RTP_XML_XML_IO_H_
