// Package catalog implements the synthetic product-catalog substrate.
//
// The paper samples products from Amazon's catalog using category
// ("browse node") and product-type labels. This package generates a
// deterministic synthetic catalog over the paper's 18 major categories
// (Table 3), where every product type carries a latent intent profile:
// the ground-truth commonsense facts (relation, tail) that explain why
// customers buy products of that type. The behavior simulator uses these
// latent intents to produce realistic co-buy and search-buy logs, and the
// evaluation uses them as exact ground truth for typicality.
package catalog

import (
	"fmt"
	"math/rand"
	"sort"

	"cosmo/internal/relations"
)

// Category is one of the 18 major product domains from paper Table 3.
type Category string

// The 18 categories of paper Table 3, in table order.
const (
	Clothing    Category = "Clothing, Shoes & Jewelry"
	Sports      Category = "Sports & Outdoors"
	HomeKitchen Category = "Home & Kitchen"
	PatioGarden Category = "Patio, Lawn & Garden"
	Tools       Category = "Tools & Home Improvement"
	Musical     Category = "Musical Instruments"
	Industrial  Category = "Industrial & Scientific"
	Automotive  Category = "Automotive"
	Electronics Category = "Electronics"
	Baby        Category = "Baby Products"
	ArtsCrafts  Category = "Arts, Crafts & Sewing"
	Health      Category = "Health & Household"
	Toys        Category = "Toys & Games"
	VideoGames  Category = "Video Games"
	Grocery     Category = "Grocery & Gourmet Food"
	Office      Category = "Office Products"
	PetSupplies Category = "Pet Supplies"
	Others      Category = "Others"
)

// Categories returns the 18 categories in Table 3 order.
func Categories() []Category {
	return []Category{
		Clothing, Sports, HomeKitchen, PatioGarden, Tools, Musical,
		Industrial, Automotive, Electronics, Baby, ArtsCrafts, Health,
		Toys, VideoGames, Grocery, Office, PetSupplies, Others,
	}
}

// Intent is one ground-truth commonsense fact attached to a product type.
type Intent struct {
	Relation relations.Relation
	Tail     string
}

// Surface returns the verbalized knowledge string for the intent. The
// world's intents read theirs from a table made once.
func (it Intent) Surface() string {
	if s, ok := worldSurfaces[it]; ok {
		return s
	}
	return relations.Verbalize(it.Relation, it.Tail)
}

// worldSurfaces holds the Surface of every intent in worldData.
var worldSurfaces = func() map[Intent]string {
	m := map[Intent]string{}
	for _, pt := range worldData {
		for _, in := range pt.Intents {
			m[in] = relations.Verbalize(in.Relation, in.Tail)
		}
	}
	return m
}()

// ProductType describes what a product essentially is ("umbrella",
// "chair"); the paper uses >1000 such labels for sampling. Each carries
// the latent intents that ground the simulation.
type ProductType struct {
	Name     string
	Category Category
	Intents  []Intent
	// Complements lists product-type names frequently co-purchased with
	// this type for a shared reason (intentional co-buys).
	Complements []string
}

// Product is one catalog item.
type Product struct {
	ID       string
	Title    string
	Category Category
	Type     string // ProductType name
	Brand    string
	// Popularity is the base attractiveness weight used by the behavior
	// simulator's Zipf-like sampling; higher means more interactions.
	Popularity float64
}

// Catalog is an immutable synthetic catalog.
type Catalog struct {
	products    []Product
	byID        map[string]int
	byType      map[string]span // a type's products are contiguous
	byCategory  map[Category][]int
	types       map[string]ProductType
	typeOrder   []string
	catTypeName map[Category][]string
}

// span is the half-open range [lo, hi) of products that holds one type.
type span struct{ lo, hi int }

// Config controls catalog generation.
type Config struct {
	// ProductsPerType is how many distinct products to mint per product
	// type. The paper's scale is millions; tests use small values.
	ProductsPerType int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config { return Config{ProductsPerType: 12, Seed: 1} }

// Generate builds a catalog from the built-in world data.
func Generate(cfg Config) *Catalog {
	if cfg.ProductsPerType <= 0 {
		cfg.ProductsPerType = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Catalog{
		byID:        map[string]int{},
		byType:      map[string]span{},
		byCategory:  map[Category][]int{},
		types:       map[string]ProductType{},
		catTypeName: map[Category][]string{},
	}
	for _, pt := range worldData {
		c.types[pt.Name] = pt
		c.typeOrder = append(c.typeOrder, pt.Name)
		c.catTypeName[pt.Category] = append(c.catTypeName[pt.Category], pt.Name)
	}
	sort.Strings(c.typeOrder)
	id := 0
	for _, name := range c.typeOrder {
		pt := c.types[name]
		c.byType[name] = span{len(c.products), len(c.products) + cfg.ProductsPerType}
		for i := 0; i < cfg.ProductsPerType; i++ {
			id++
			p := Product{
				ID:       fmt.Sprintf("P%06d", id),
				Category: pt.Category,
				Type:     pt.Name,
				Brand:    brands[rng.Intn(len(brands))],
				// Zipf-like popularity: rank within type.
				Popularity: 1.0 / float64(i+1),
			}
			p.Title = makeTitle(rng, p.Brand, pt.Name)
			idx := len(c.products)
			c.products = append(c.products, p)
			c.byID[p.ID] = idx
			c.byCategory[pt.Category] = append(c.byCategory[pt.Category], idx)
		}
	}
	return c
}

var titleAdjectives = []string{
	"Premium", "Portable", "Heavy Duty", "Adjustable", "Compact",
	"Waterproof", "Lightweight", "Professional", "Deluxe", "Classic",
	"Ergonomic", "Foldable", "Durable", "Multi-Purpose", "Eco-Friendly",
}

var titleSuffixes = []string{
	"with Carry Case", "2-Pack", "Large", "Small", "for Home and Travel",
	"Gift Set", "Upgraded Version", "with Accessories", "New Model", "",
}

var brands = []string{
	"Acme", "Zenith", "Northwind", "Bluepeak", "Solstice", "Orchard",
	"Ironclad", "Lumina", "Cascade", "Harbor", "Pinnacle", "Vertex",
	"Meridian", "Summit", "Aurora", "Redwood",
}

func makeTitle(rng *rand.Rand, brand, typeName string) string {
	adj := titleAdjectives[rng.Intn(len(titleAdjectives))]
	suf := titleSuffixes[rng.Intn(len(titleSuffixes))]
	if suf != "" {
		return brand + " " + adj + " " + typeName + " " + suf
	}
	return brand + " " + adj + " " + typeName
}

// Products returns all products (do not mutate).
func (c *Catalog) Products() []Product { return c.products }

// Len returns the number of products.
func (c *Catalog) Len() int { return len(c.products) }

// ByID returns the product with the given ID.
func (c *Catalog) ByID(id string) (Product, bool) {
	i, ok := c.byID[id]
	if !ok {
		return Product{}, false
	}
	return c.products[i], true
}

// OfType returns all products of the given product type, in ID order
// (do not mutate: it is a view of the catalog, like Products).
func (c *Catalog) OfType(typeName string) []Product {
	sp := c.byType[typeName]
	return c.products[sp.lo:sp.hi:sp.hi]
}

// InCategory returns all products in the category.
func (c *Catalog) InCategory(cat Category) []Product {
	idxs := c.byCategory[cat]
	out := make([]Product, len(idxs))
	for i, idx := range idxs {
		out[i] = c.products[idx]
	}
	return out
}

// Type returns the ProductType record for a type name.
func (c *Catalog) Type(name string) (ProductType, bool) {
	pt, ok := c.types[name]
	return pt, ok
}

// Types returns all product-type names in sorted order.
func (c *Catalog) Types() []string { return c.typeOrder }

// TypesInCategory returns product-type names in the category.
func (c *Catalog) TypesInCategory(cat Category) []string {
	return c.catTypeName[cat]
}

// IntentsOf returns the ground-truth intents of a product (via its type).
func (c *Catalog) IntentsOf(p Product) []Intent {
	return c.types[p.Type].Intents
}

// AppendSharedIntents appends to dst the intents common to both
// products' types, the ground truth for why they might be co-purchased
// intentionally. Into a dst with room it allocates nothing.
func (c *Catalog) AppendSharedIntents(dst []Intent, a, b Product) []Intent {
	tb := c.types[b.Type].Intents
	for _, ia := range c.types[a.Type].Intents {
		for _, ib := range tb {
			if ia == ib {
				dst = append(dst, ia)
			}
		}
	}
	return dst
}

// AreComplements reports whether the two product types are declared
// complements in the world data (in either direction).
func (c *Catalog) AreComplements(typeA, typeB string) bool {
	for _, x := range c.types[typeA].Complements {
		if x == typeB {
			return true
		}
	}
	for _, x := range c.types[typeB].Complements {
		if x == typeA {
			return true
		}
	}
	return false
}
